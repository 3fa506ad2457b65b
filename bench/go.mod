module github.com/b-iot/biot/bench

go 1.22

require github.com/b-iot/biot v0.0.0

replace github.com/b-iot/biot => ../
