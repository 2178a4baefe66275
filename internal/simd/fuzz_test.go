package simd_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mkos/internal/simd"
)

// FuzzSpecID fuzzes the daemon's admission boundary: every submitted body
// goes through SpecID before anything else sees it. Properties: no panic; a
// rejection is exactly ("", nil, error); and an accepted body's canonical
// form (json.Marshal of the parsed spec, what admission persists and the id
// hashes) is itself accepted with the same id and the same canonical bytes —
// a fixed point, so recovery re-parsing a stored spec finds the campaign it
// admitted. Seeds are the committed specs, full-scale and quick;
// testdata/fuzz/FuzzSpecID holds malformed bodies and edge cases of the
// machine_fwq, operational and apps figure fields.
func FuzzSpecID(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	quick, qerr := filepath.Glob(filepath.Join("..", "..", "specs", "quick", "*.json"))
	if err != nil || qerr != nil || len(paths) == 0 || len(quick) == 0 {
		f.Fatalf("no seed specs: %d full-scale (%v), %d quick (%v)", len(paths), err, len(quick), qerr)
	}
	paths = append(paths, quick...)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		id, spec, err := simd.SpecID(body)
		if err != nil {
			if id != "" || spec != nil {
				t.Fatalf("rejection returned id %q and spec %v alongside %v", id, spec, err)
			}
			return
		}
		if id == "" || spec == nil {
			t.Fatalf("acceptance returned id %q and spec %v", id, spec)
		}
		canon, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		id2, spec2, err := simd.SpecID(canon)
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", canon, err)
		}
		if id2 != id {
			t.Fatalf("canonical form %s hashes to %s, body hashed to %s", canon, id2, id)
		}
		canon2, err := json.Marshal(spec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon2, canon) {
			t.Fatalf("canonical form is not a fixed point:\n first %s\nsecond %s", canon, canon2)
		}
	})
}
