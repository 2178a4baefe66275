// Package fake is the sinkdiscipline ops-allowlist corpus: under cmd/ the
// package-level helpers and the sink installers are legal, so no finding.
package fake

import "mkos/internal/telemetry"

func main() {
	telemetry.Reset()
	telemetry.AttachEngine(nil)
	telemetry.C("cmd.runs").Inc()
	telemetry.RunWith(nil, func() {})
}
