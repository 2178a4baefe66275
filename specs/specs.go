// Package specs embeds the committed campaign specs — specs/*.json and their
// reduced-scale twins specs/quick/*.json — so commands load them from any
// working directory.
package specs

import (
	"embed"
	"fmt"

	"mkos/internal/sweep/campaigns"
)

//go:embed *.json quick/*.json
var files embed.FS

// Paper names, in artifact order, the specs that regenerate the paper's
// evaluation; each exists at full scale and under quick/.
var Paper = []string{"table2", "figure3-baseline", "figure3-daemons", "figure4",
	"figure5", "figure6", "figure7", "operational", "machine-fwq"}

// Load parses the embedded spec name, a path relative to specs/ without the
// .json extension ("table2", "quick/table2").
func Load(name string) (*campaigns.Spec, error) {
	blob, err := files.ReadFile(name + ".json")
	if err != nil {
		return nil, err
	}
	s, err := campaigns.ParseSpec(blob)
	if err != nil {
		return nil, fmt.Errorf("specs: %s: %w", name, err)
	}
	return s, nil
}
