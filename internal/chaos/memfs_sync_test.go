package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
)

// TestMemFSSyncPromotesPendingInOrder drives a seeded script of writes
// (appends, overwrites, writes past the end), truncates (shrinking and
// growing) and syncs over two files, one of them through two handles.
// After each Sync a file's durable view equals its process view; between
// syncs no write, truncate or clone moves it; a clone taken mid-script
// keeps its views while the original goes on; and the bytes a Reboot
// leaves — durable plus the seed's surviving prefix of what is pending —
// hash to what they were when Sync copied the whole process view, for the
// same seed.
func TestMemFSSyncPromotesPendingInOrder(t *testing.T) {
	const (
		seed   = 0x5C
		steps  = 3000
		pinned = "33dade73fcc333e321f5427d5f68707614eafd1a22f9e94865a0f74ea38c4c44"
	)
	fs := NewMemFS(seed)
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "a", "b"} // handle i writes names[i]
	handles := []File{openRW(t, fs, "a"), openRW(t, fs, "a"), openRW(t, fs, "b")}
	synced := map[string][]byte{}
	var (
		clone              *MemFS
		cloneDur, cloneDat map[string][]byte
	)
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(handles))
		h, f := handles[i], fs.files[names[i]]
		switch op := rng.Intn(10); {
		case op < 6:
			buf := make([]byte, 1+rng.Intn(48))
			rng.Read(buf)
			if _, err := h.Seek(int64(rng.Intn(len(f.data)+16)), io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write(buf); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			if err := h.Truncate(int64(rng.Intn(len(f.data) + 32))); err != nil {
				t.Fatal(err)
			}
		default:
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.durable, f.data) {
				t.Fatalf("step %d: after Sync, %s's durable view (%d B) is not its process view (%d B)",
					step, names[i], len(f.durable), len(f.data))
			}
			synced[names[i]] = append([]byte(nil), f.durable...)
		}
		for name, want := range synced {
			if !bytes.Equal(fs.files[name].durable, want) {
				t.Fatalf("step %d: %s's durable view moved without a Sync", step, name)
			}
		}
		if step == steps/2 {
			clone, cloneDur, cloneDat = fs.Clone(), map[string][]byte{}, map[string][]byte{}
			for name, f := range clone.files {
				cloneDur[name], cloneDat[name] = append([]byte(nil), f.durable...), append([]byte(nil), f.data...)
			}
		}
	}
	for name, f := range clone.files {
		if !bytes.Equal(f.durable, cloneDur[name]) || !bytes.Equal(f.data, cloneDat[name]) {
			t.Errorf("the clone's %s moved with the original", name)
		}
	}
	// A tail of writes, so that the reboot has pending ops to cut — in b
	// only: Reboot draws from the seed per file in map order, so two files
	// with pending ops would cut differently from run to run.
	for _, h := range handles {
		buf := make([]byte, 1+rng.Intn(48))
		rng.Read(buf)
		if _, err := h.Seek(0, io.SeekEnd); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := handles[0].Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Reboot()
	sum := sha256.New()
	for _, name := range fs.Files() {
		data, _ := fs.ReadFile(name)
		sum.Write([]byte(name))
		sum.Write(data)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != pinned {
		t.Errorf("rebooted disk hashes to %s, want %s", got, pinned)
	}
}
