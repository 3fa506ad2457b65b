package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"io"
	"reflect"
	"testing"

	"github.com/b-iot/biot/internal/experiments"
)

// heavierFigures take seconds even in quick mode; -short skips them.
var heavierFigures = map[string]bool{"7": true, "10": true, "throughput": true, "scale": true}

// checkTable renders a figure's table to io.Discard and checks that its
// CSV parses and carries exactly the table's header and one record per
// table row.
func checkTable(t *testing.T, tab *experiments.Table) {
	t.Helper()
	if err := tab.Render(io.Discard); err != nil {
		t.Fatalf("render: %v", err)
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatalf("csv: %v", err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("csv does not parse: %v", err)
	}
	if len(records) == 0 || !reflect.DeepEqual(records[0], tab.Header) {
		t.Fatalf("csv records %q do not start with the table header %q", records, tab.Header)
	}
	if got, want := len(records)-1, len(tab.Rows); got != want || want == 0 {
		t.Errorf("csv has %d records, table %d rows", got, want)
	}
}

// TestRunOneQuickFigures smoke-tests every light figure in the table, in
// its quick configuration: it renders and writes CSV (checkTable).
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
			checkTable(t, res.Table())
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
			checkTable(t, res.Table())
		})
	}
}

func TestRunOneUnknownFigure(t *testing.T) {
	if _, err := lookup("42z"); err == nil {
		t.Error("unknown figure accepted")
	}
}
