package store

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
)

func coldID(i int) hashutil.Hash {
	return hashutil.Sum([]byte(fmt.Sprintf("cold-%d", i)))
}

func coldEpoch(i int) time.Time {
	return time.Unix(1_700_000_000+int64(i)*60, 0)
}

func TestColdIndexAddContains(t *testing.T) {
	fs := chaos.NewMemFS(1)
	c, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var batch []hashutil.Hash
	for i := 0; i < 500; i++ {
		batch = append(batch, coldID(i))
	}
	if err := c.AddBatch(batch, coldEpoch(0)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 500 {
		t.Fatalf("Len = %d, want 500", c.Len())
	}
	for i := 0; i < 500; i++ {
		ok, err := c.Contains(coldID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("id %d missing after add", i)
		}
	}
	// No false negatives is the contract; also spot-check absent IDs
	// resolve correctly through the bloom + disk path.
	for i := 500; i < 1000; i++ {
		ok, err := c.Contains(coldID(i))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("absent id %d reported present", i)
		}
	}
}

func TestColdIndexReopenRecovers(t *testing.T) {
	fs := chaos.NewMemFS(1)
	c, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		var batch []hashutil.Hash
		for i := 0; i < 100; i++ {
			batch = append(batch, coldID(r*100+i))
		}
		if err := c.AddBatch(batch, coldEpoch(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 300 {
		t.Fatalf("reopened Len = %d, want 300", re.Len())
	}
	if got, want := re.Epoch(), coldEpoch(2); !got.Equal(want) {
		t.Fatalf("reopened Epoch = %v, want %v", got, want)
	}
	for i := 0; i < 300; i++ {
		ok, err := re.Contains(coldID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("id %d lost across reopen", i)
		}
	}
}

func TestColdIndexTornTailTruncated(t *testing.T) {
	fs := chaos.NewMemFS(1)
	c, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch([]hashutil.Hash{coldID(1), coldID(2)}, coldEpoch(0)); err != nil {
		t.Fatal(err)
	}
	intact := c.Bytes()
	// A second run that tears mid-body: append it, then chop bytes off
	// the end as a crash-before-sync would.
	if err := c.AddBatch([]hashutil.Hash{coldID(3), coldID(4)}, coldEpoch(1)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	f, err := fs.OpenFile("cold.idx", os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(intact + runHdrSize + coldIDSize/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("Len after torn tail = %d, want 2", re.Len())
	}
	if re.Bytes() != intact {
		t.Fatalf("Bytes after torn tail = %d, want %d", re.Bytes(), intact)
	}
	for _, i := range []int{1, 2} {
		if ok, _ := re.Contains(coldID(i)); !ok {
			t.Fatalf("intact id %d lost", i)
		}
	}
	if ok, _ := re.Contains(coldID(3)); ok {
		t.Fatal("torn-run id resurrected")
	}
	// And the index keeps accepting writes after recovery.
	if err := re.AddBatch([]hashutil.Hash{coldID(5)}, coldEpoch(2)); err != nil {
		t.Fatal(err)
	}
	if ok, _ := re.Contains(coldID(5)); !ok {
		t.Fatal("post-recovery add not visible")
	}
}

func TestColdIndexMergeDedupes(t *testing.T) {
	fs := chaos.NewMemFS(1)
	c, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Push past the merge threshold with overlapping runs: every run
	// shares ID 0 with all the others.
	total := 0
	for r := 0; r <= maxColdRuns; r++ {
		batch := []hashutil.Hash{coldID(0)}
		for i := 1; i <= 40; i++ {
			batch = append(batch, coldID(r*1000+i))
		}
		if err := c.AddBatch(batch, coldEpoch(r)); err != nil {
			t.Fatal(err)
		}
		total += 40
	}
	if c.Runs() != 1 {
		t.Fatalf("Runs after merge = %d, want 1", c.Runs())
	}
	if want := total + 1; c.Len() != want {
		t.Fatalf("Len after dedupe merge = %d, want %d", c.Len(), want)
	}
	if got, want := c.Epoch(), coldEpoch(maxColdRuns); !got.Equal(want) {
		t.Fatalf("Epoch after merge = %v, want %v", got, want)
	}
	for r := 0; r <= maxColdRuns; r++ {
		for i := 1; i <= 40; i++ {
			if ok, err := c.Contains(coldID(r*1000 + i)); err != nil || !ok {
				t.Fatalf("id %d/%d lost in merge (ok=%v err=%v)", r, i, ok, err)
			}
		}
	}
	if ok, _ := c.Contains(coldID(0)); !ok {
		t.Fatal("shared id lost in merge")
	}

	// Merged state must survive a reopen byte for byte.
	bytesBefore := c.Bytes()
	c.Close()
	re, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != total+1 || re.Bytes() != bytesBefore || re.Runs() != 1 {
		t.Fatalf("reopen after merge: len=%d bytes=%d runs=%d, want %d/%d/1",
			re.Len(), re.Bytes(), re.Runs(), total+1, bytesBefore)
	}
}

func TestColdIndexWriteFaultPoisons(t *testing.T) {
	fs := chaos.NewMemFS(1)
	c, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddBatch([]hashutil.Hash{coldID(1)}, coldEpoch(0)); err != nil {
		t.Fatal(err)
	}
	fs.InjectWriteError(nil)
	if err := c.AddBatch([]hashutil.Hash{coldID(2)}, coldEpoch(1)); err == nil {
		t.Fatal("faulted AddBatch succeeded")
	}
	if c.Healthy() {
		t.Fatal("index healthy after write fault")
	}
	if err := c.AddBatch([]hashutil.Hash{coldID(3)}, coldEpoch(2)); err == nil {
		t.Fatal("poisoned index accepted a write")
	}
	// Reads keep serving the durable prefix.
	if ok, err := c.Contains(coldID(1)); err != nil || !ok {
		t.Fatalf("durable id unreadable after poison (ok=%v err=%v)", ok, err)
	}
}

// TestColdIndexBloomWaitsForTheFirstRun: a journaling node that has never
// pruned pays nothing for the 256 KiB bloom filter — it is allocated when
// the first run is written, or read back on open — and a nil filter
// answers "not cold" without touching the disk.
func TestColdIndexBloomWaitsForTheFirstRun(t *testing.T) {
	fs := chaos.NewMemFS(1)
	c, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	if c.bloom != nil {
		t.Fatal("a fresh index allocated its bloom filter")
	}
	if ok, err := c.Contains(coldID(1)); ok || err != nil {
		t.Fatalf("Contains on an empty index = %v, %v", ok, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	empty, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	if empty.bloom != nil {
		t.Fatal("reopening an index with no runs allocated its bloom filter")
	}
	if err := empty.AddBatch([]hashutil.Hash{coldID(1)}, coldEpoch(0)); err != nil {
		t.Fatal(err)
	}
	if ok, err := empty.Contains(coldID(1)); !ok || err != nil || empty.bloom == nil {
		t.Fatalf("after the first run: Contains = %v, %v; bloom allocated %v", ok, err, empty.bloom != nil)
	}
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenColdIndex(fs, "cold.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ok, err := re.Contains(coldID(1)); !ok || err != nil {
		t.Fatalf("after reopening a run: Contains = %v, %v", ok, err)
	}
}
