// Package campaigns is the sweep-exception corpus: loaded under the
// internal/sweep/campaigns path, which is inside the ops-allowed
// internal/sweep prefix but holds the deterministic trial units — the one
// subtree of an ops package every analyzer still binds.
package campaigns

import (
	"context"
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops" // want "import of mkos/internal/telemetry/ops in deterministic package"
)

func bad(ctx context.Context, eng *sim.Engine) {
	ops.Instant(ctx, "trial-unit-instant")
	_ = time.Now()              // want "wall-clock time\\.Now in deterministic package mkos/internal/sweep/campaigns"
	telemetry.AttachEngine(eng) // want "telemetry\\.AttachEngine in model package mkos/internal/sweep/campaigns"
}
