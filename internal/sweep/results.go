package sweep

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteResults renders the deterministic results artifact, results.json. A
// complete run keeps the plain top-level array (the historic format,
// preserved so byte-identity checks against older artifacts keep working); an
// interrupted run wraps the partial array in an envelope whose
// "partial": true marker is impossible to mistake for a finished campaign.
// The bytes are those of json.MarshalIndent over the whole value, but trials
// are encoded one at a time: a full-scale Table 2 row alone carries ~40M
// noise lengths. cmd/sweep and the simd worker both render through it, so a
// campaign served by the daemon byte-compares against one run by the CLI.
func WriteResults(w io.Writer, o *Outcome) error {
	if !o.Partial {
		if err := writeResultArray(w, o.Results, ""); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	fmt.Fprintf(w, "{\n  \"partial\": true,\n  \"unfinished\": %d,\n  \"results\": ", o.Canceled)
	if err := writeResultArray(w, o.Results, "  "); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// writeResultArray writes rs exactly as json.MarshalIndent(rs, prefix, "  ")
// would, one element at a time.
func writeResultArray(w io.Writer, rs []TrialResult, prefix string) error {
	if len(rs) == 0 {
		blob, err := json.MarshalIndent(rs, prefix, "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(blob)
		return err
	}
	io.WriteString(w, "[\n")
	for i, r := range rs {
		blob, err := json.MarshalIndent(r, prefix+"  ", "  ")
		if err != nil {
			return err
		}
		io.WriteString(w, prefix+"  ")
		w.Write(blob)
		if i < len(rs)-1 {
			io.WriteString(w, ",")
		}
		io.WriteString(w, "\n")
	}
	_, err := io.WriteString(w, prefix+"]")
	return err
}
