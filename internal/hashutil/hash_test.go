package hashutil

import (
	"crypto/sha256"
	"strings"
	"testing"
	"testing/quick"
)

func TestSumMatchesStdlib(t *testing.T) {
	data := []byte("b-iot test vector")
	want := sha256.Sum256(data)
	if got := Sum(data); got != Hash(want) {
		t.Errorf("Sum = %x, want %x", got, want)
	}
}

func TestSumConcatEqualsSumOfConcatenation(t *testing.T) {
	check := func(a, b, c []byte) bool {
		joined := append(append(append([]byte{}, a...), b...), c...)
		return SumConcat(a, b, c) == Sum(joined)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestHexRoundTrip(t *testing.T) {
	check := func(h Hash) bool {
		parsed, err := FromHex(h.Hex())
		return err == nil && parsed == h
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFromHexErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", "abcd"},
		{"long", strings.Repeat("ab", 33)},
		{"non-hex", strings.Repeat("zz", 32)},
		{"odd length", strings.Repeat("a", 63)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromHex(tt.in); err == nil {
				t.Errorf("FromHex(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestLeadingZeroBits(t *testing.T) {
	tests := []struct {
		name string
		h    Hash
		want int
	}{
		{"zero hash", Zero, 256},
		{"first bit set", hashWithByte(0, 0x80), 0},
		{"second bit set", hashWithByte(0, 0x40), 1},
		{"one byte zero", hashWithByte(1, 0xFF), 8},
		{"two bytes zero", hashWithByte(2, 0xFF), 16},
		{"low bit of first byte", hashWithByte(0, 0x01), 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.h.LeadingZeroBits(); got != tt.want {
				t.Errorf("LeadingZeroBits = %d, want %d", got, tt.want)
			}
		})
	}
}

// hashWithByte returns a hash whose first `zeros` bytes are zero, the
// next byte is b, and the rest are 0xFF.
func hashWithByte(zeros int, b byte) Hash {
	var h Hash
	for i := range h {
		switch {
		case i < zeros:
			h[i] = 0
		case i == zeros:
			h[i] = b
		default:
			h[i] = 0xFF
		}
	}
	return h
}

func TestMeetsDifficulty(t *testing.T) {
	h := hashWithByte(1, 0x7F) // 9 leading zero bits
	if got := h.LeadingZeroBits(); got != 9 {
		t.Fatalf("fixture has %d bits, want 9", got)
	}
	for d := -1; d <= 9; d++ {
		if !h.MeetsDifficulty(d) {
			t.Errorf("difficulty %d not met, want met", d)
		}
	}
	for _, d := range []int{10, 11, 100, 256} {
		if h.MeetsDifficulty(d) {
			t.Errorf("difficulty %d met, want not met", d)
		}
	}
	if h.MeetsDifficulty(257) {
		t.Error("difficulty beyond hash size met")
	}
	if !Zero.MeetsDifficulty(256) {
		t.Error("zero hash should meet maximum difficulty")
	}
}

func TestMeetsDifficultyConsistentWithLeadingZeros(t *testing.T) {
	check := func(h Hash, d uint8) bool {
		diff := int(d % 64)
		return h.MeetsDifficulty(diff) == (h.LeadingZeroBits() >= diff || diff == 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	a := hashWithByte(0, 0x01)
	b := hashWithByte(0, 0x02)
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	check := func(a, b Hash) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesIsACopy(t *testing.T) {
	h := Sum([]byte("x"))
	raw := h.Bytes()
	raw[0] ^= 0xFF
	if raw[0] == h[0] {
		t.Error("Bytes returned aliased storage")
	}
}

func TestShortAndString(t *testing.T) {
	h := Sum([]byte("y"))
	if len(h.Short()) != 8 {
		t.Errorf("Short length = %d, want 8", len(h.Short()))
	}
	if h.String() != h.Hex() {
		t.Error("String != Hex")
	}
	if !strings.HasPrefix(h.Hex(), h.Short()) {
		t.Error("Short is not a prefix of Hex")
	}
}

func TestIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Error("Zero.IsZero() = false")
	}
	if Sum(nil).IsZero() {
		t.Error("Sum(nil).IsZero() = true")
	}
}

func TestMarshalTextRoundTrip(t *testing.T) {
	h := Sum([]byte("marshal"))
	text, err := h.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Hash
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Error("text round trip mismatch")
	}
}

// TestFromHexAllocatesNothing pins the success path: the RPC surface
// parses hashes on every exchange.
func TestFromHexAllocatesNothing(t *testing.T) {
	for _, in := range []string{Sum([]byte("x")).Hex(), strings.ToUpper(Sum([]byte("y")).Hex())} {
		want, err := FromHex(in)
		if err != nil || !strings.EqualFold(want.Hex(), in) {
			t.Fatalf("FromHex(%q) = %v, %v", in, want, err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if got, err := FromHex(in); err != nil || got != want {
				t.Fatalf("FromHex(%q) = %v, %v", in, got, err)
			}
		}); allocs != 0 {
			t.Errorf("FromHex(%q) allocates %v times, want 0", in, allocs)
		}
	}
}
