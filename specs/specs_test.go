package specs

import (
	"io/fs"
	"path"
	"strings"
	"testing"
)

// legacyNames are the two CI specs named before the file-stem rule. Their
// names are part of their content-hash campaign ids, which simd's stored
// campaigns and TestCommittedSpecIDsStable pin, so they stay as they are.
var legacyNames = map[string]string{"ci-sweep": "ci", "simd-supervise": "supervise"}

// TestEmbeddedSpecs: every embedded spec, full-scale and quick, parses,
// enumerates at least one trial and is named after its file stem.
func TestEmbeddedSpecs(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"*.json", "quick/*.json"} {
		matches, err := fs.Glob(files, pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, matches...)
	}
	if len(paths) < 2*len(Paper) {
		t.Fatalf("only %d embedded specs: %v", len(paths), paths)
	}
	for _, p := range paths {
		name := strings.TrimSuffix(p, ".json")
		s, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		want := path.Base(name)
		if legacy, ok := legacyNames[name]; ok {
			want = legacy
		}
		if s.Name != want {
			t.Errorf("%s: name %q, want %q", p, s.Name, want)
		}
		c, err := s.Campaign()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(c.Trials) == 0 {
			t.Errorf("%s enumerates no trials", p)
		}
	}
}

// TestPaperSpecs: each paper spec exists at both scales, every figure
// section pins its seeds, and no two specs share a trial key. Pinned seeds
// and disjoint keys are what let repro merge the specs into one campaign
// that computes exactly what each spec computes alone.
func TestPaperSpecs(t *testing.T) {
	for _, dir := range []string{"", "quick/"} {
		owner := map[string]string{}
		for _, name := range Paper {
			s, err := Load(dir + name)
			if err != nil {
				t.Fatal(err)
			}
			if (len(s.Figures) > 0 || len(s.Apps) > 0) && len(s.Seeds) == 0 {
				t.Errorf("%s%s: figure sections without pinned seeds", dir, name)
			}
			c, err := s.Campaign()
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range c.Trials {
				if prev, ok := owner[tr.Key]; ok {
					t.Errorf("%s: trial key %s in both %s and %s", dir, tr.Key, prev, name)
				}
				owner[tr.Key] = name
			}
		}
	}
}
