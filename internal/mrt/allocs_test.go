//go:build !race

package mrt

import (
	"bytes"
	"testing"
)

// Not under the race detector: there sync.Pool drops a quarter of what
// is put back, so WriteUpdate's buffer is new at random.

// TestCodecAllocs keeps the per-record allocation count where the
// reused buffers put it: none to write, and to read only what the
// caller keeps — the Update and its path — plus the decoder itself.
func TestCodecAllocs(t *testing.T) {
	u := sampleUpdate()
	var buf bytes.Buffer
	buf.Grow(1 << 10)
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := WriteUpdate(&buf, u); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("WriteUpdate: %.0f allocs per record, want 0", n)
	}
	const records = 16
	buf.Reset()
	for i := 0; i < records; i++ {
		if err := WriteUpdate(&buf, u); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bytes.NewReader(stream)
	// Per stream: the decoder, its body buffer, the result slice's
	// growth (1, 2, 4, 8, 16).
	const perStream = 2 + 5
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		if us, err := ReadAll(r); err != nil || len(us) != records {
			t.Fatalf("ReadAll: %d updates, err %v", len(us), err)
		}
	}); n > 2*records+perStream {
		t.Errorf("ReadAll: %.0f allocs for %d records, want at most %d", n, records, 2*records+perStream)
	}
}
