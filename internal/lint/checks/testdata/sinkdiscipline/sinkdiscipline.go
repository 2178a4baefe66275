// Package sinkdiscipline is the sinkdiscipline analyzer corpus: a model
// (deterministic) package touching the sink-installation API it must not
// own, and publishing through helpers that look the sink up per call.
package sinkdiscipline

import "mkos/internal/telemetry"

func badInstall() {
	telemetry.Reset()                         // want "telemetry\\.Reset in model package"
	telemetry.SetDefault(telemetry.NewSink()) // want "telemetry\\.SetDefault in model package"
	telemetry.RunWith(nil, func() {})         // want "telemetry\\.RunWith in model package"
}

func badPublish(n int) {
	for i := 0; i < n; i++ {
		telemetry.C("corpus.counter").Inc() // want "telemetry\\.C in model package .* looks the sink up"
	}
	if telemetry.TraceEnabled() { // want "telemetry\\.TraceEnabled in model package"
		telemetry.Instant("corpus", "event", 0, 0, 0) // want "telemetry\\.Instant in model package"
	}
}

// model is a model object holding the sink of the scope it was built in.
type model struct {
	sink *telemetry.Sink
}

// good: resolve the sink once where the operation starts, then publish
// through the held *Sink.
func good(n int) *model {
	m := &model{sink: telemetry.Default()}
	for i := 0; i < n; i++ {
		m.sink.C("corpus.counter").Inc()
		m.sink.G("corpus.gauge").Set(float64(i))
	}
	if m.sink.TraceEnabled() {
		m.sink.Instant("corpus", "event", 0, 0, 0)
	}
	return m
}

func allowed() {
	//simlint:allow sinkdiscipline — corpus example: standalone harness that owns the process-wide sink
	telemetry.Reset()
	//simlint:allow sinkdiscipline — corpus example: a one-shot count outside any per-event path
	telemetry.C("corpus.once").Inc()
}
