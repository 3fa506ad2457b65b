package main

import (
	"context"
	"io"
	"testing"
)

// heavierFigures take seconds even in quick mode; -short skips them.
var heavierFigures = map[string]bool{"7": true, "10": true, "throughput": true, "scale": true}

// TestRunOneQuickFigures smoke-tests every light figure in the table, in
// its quick configuration, rendering to io.Discard.
func TestRunOneQuickFigures(t *testing.T) {
	for _, f := range figures {
		if heavierFigures[f.name] {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			res, err := f.run(context.Background(), true)
			if err != nil {
				t.Fatalf("figure %s: %v", f.name, err)
			}
			if err := res.Render(io.Discard); err != nil {
				t.Fatalf("render: %v", err)
			}
			if err := res.CSV(io.Discard); err != nil {
				t.Fatalf("csv: %v", err)
			}
		})
	}
}

func TestRunOneHeavierFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier figures skipped in -short mode")
	}
	for _, f := range figures {
		if !heavierFigures[f.name] {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			res, err := f.run(context.Background(), true)
			if err != nil {
				t.Fatalf("figure %s: %v", f.name, err)
			}
			if err := res.Render(io.Discard); err != nil {
				t.Fatalf("render: %v", err)
			}
		})
	}
}

func TestRunOneUnknownFigure(t *testing.T) {
	if _, err := lookup("42z"); err == nil {
		t.Error("unknown figure accepted")
	}
}
