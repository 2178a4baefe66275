package sweep_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mkos/internal/sweep"
)

// TestWriteResultsMatchesMarshalIndent: the streamed results artifact must
// equal the one-shot json.MarshalIndent rendering it replaced, for complete
// and partial runs, empty and absent result sets included.
func TestWriteResultsMatchesMarshalIndent(t *testing.T) {
	results := []sweep.TrialResult{
		{Key: "a/00", Seed: 7, Payload: json.RawMessage(`{"x":[1,2,{"y":null}],"s":"q\"uote"}`)},
		{Key: "a/01", Seed: -3, Err: "boom\nline two"},
		{Key: "a/02", Seed: 1, Payload: json.RawMessage(`[0,0,3]`)},
	}
	for _, tc := range []struct {
		name string
		rs   []sweep.TrialResult
	}{
		{"several", results},
		{"one", results[:1]},
		{"empty", []sweep.TrialResult{}},
		{"nil", nil},
	} {
		for _, partial := range []bool{false, true} {
			o := &sweep.Outcome{Results: tc.rs, Partial: partial, Canceled: 4}
			var want []byte
			var err error
			if partial {
				want, err = json.MarshalIndent(struct {
					Partial    bool                `json:"partial"`
					Unfinished int                 `json:"unfinished"`
					Results    []sweep.TrialResult `json:"results"`
				}{true, o.Canceled, o.Results}, "", "  ")
			} else {
				want, err = json.MarshalIndent(o.Results, "", "  ")
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			var got bytes.Buffer
			if err := sweep.WriteResults(&got, o); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s (partial %v):\n got %q\nwant %q", tc.name, partial, got.Bytes(), want)
			}
		}
	}
}
