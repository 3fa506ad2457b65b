package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestVirtualTimeFiguresGolden pins the text of the figures that run on
// virtual time (8a, 8b, 9 and the λ2 sweep): their output is the same
// bytes on every run, so any change to it is a change to the figure.
// Regenerate with `go test ./internal/experiments -run Golden -update`.
func TestVirtualTimeFiguresGolden(t *testing.T) {
	fig8a, err := RunFig8(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	fig8b, err := RunFig8(Fig8bConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := RunFig9(DefaultFig9Config())
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := RunLambdaSweep(DefaultLambdaSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, tab := range map[string]*Table{
		"fig8a":  fig8a.Table(),
		"fig8b":  fig8b.Table(),
		"fig9":   fig9.Table(),
		"lambda": lambda.Table(),
	} {
		var got bytes.Buffer
		if err := tab.Render(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s text differs from %s:\n--- got\n%s--- want\n%s", name, path, got.Bytes(), want)
		}
	}
}
