package experiments

import (
	"bytes"
	"testing"
)

// A cell with multi-byte characters is as wide as its runes: the column
// after it starts where it would after ASCII of the same length.
func TestTableRenderAlignsNonASCIICells(t *testing.T) {
	tab := &Table{
		Title:  "title",
		Header: []string{"a", "change", "z"},
		Notes:  []string{"note"},
	}
	tab.add("1", "4 → 7", "x")
	tab.add("2", "4 to 7", "y")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	want := "title\n" +
		"a  change  z\n" +
		"-  ------  -\n" +
		"1  4 → 7   x\n" +
		"2  4 to 7  y\n" +
		"note\n"
	if got := buf.String(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}
