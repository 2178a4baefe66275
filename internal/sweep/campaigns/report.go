package campaigns

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/linux"
	"mkos/internal/noise"
	"mkos/internal/sweep"
)

// The renderers below turn a finished campaign outcome into the text formats
// of the committed results/*.txt files, one renderer per family. They write
// to w without checking write errors; callers render into a bytes.Buffer.

// Report renders the spec's text report from a complete outcome: one section
// per family, in the paper's order (Table 2, Figure 3, attribution, Figure 4,
// Figures 5-7 and custom apps, fault sweep, operational probe, full-machine
// FWQ). A spec with a single section renders exactly that family's artifact
// format; the full-machine FWQ renders its result as indented JSON.
func (s *Spec) Report(o *sweep.Outcome) ([]byte, error) {
	var b bytes.Buffer
	if s.Table2 != nil {
		if err := writeTable2(&b, o, s.Table2.Table2Config()); err != nil {
			return nil, err
		}
	}
	if s.Figure3 != nil {
		for _, cm := range s.Figure3.resolved().Countermeasures {
			if err := writeFigure3(&b, o, cm); err != nil {
				return nil, err
			}
		}
	}
	if s.Attribution != nil {
		a := s.Attribution.resolved()
		if err := writeAttribution(&b, o, a.Countermeasure, seconds(a.DurationSeconds)); err != nil {
			return nil, err
		}
	}
	if s.Figure4 != nil {
		if err := writeFigure4(&b, o, s.Figure4.Figure4Config(), s.Figure4.iterations()); err != nil {
			return nil, err
		}
	}
	figSpecs, err := s.FigureSpecs()
	if err != nil {
		return nil, err
	}
	writeFigures(&b, o, figSpecs)
	if s.Fault != nil {
		if err := writeFault(&b, o, *s.Fault); err != nil {
			return nil, err
		}
	}
	if s.Operational != nil {
		if err := writeOperational(&b, o); err != nil {
			return nil, err
		}
	}
	if s.MachineFWQ != nil {
		if err := writeMachineFWQ(&b, o); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// writeTable2 renders Table 2: every countermeasure row, measured beside
// published.
func writeTable2(w io.Writer, o *sweep.Outcome, cfg core.Table2Config) error {
	fmt.Fprintf(w, "Table 2: Effectiveness of individual noise elimination techniques\n")
	fmt.Fprintf(w, "(simulated %d-node A64FX system, %.1f-minute FWQ runs, 6.5 ms quanta)\n\n", cfg.Nodes, cfg.Duration.Minutes())
	fmt.Fprintf(w, "%-32s %18s %12s %14s %12s\n", "Disabled technique", "Max noise (us)", "Noise rate", "Paper max(us)", "Paper rate")
	for i, disabled := range core.Table2Variants() {
		// The row's noise lengths (~40M at paper scale) are not printed, so
		// they are not decoded.
		var r struct {
			Disabled  string
			MaxNoise  time.Duration
			NoiseRate float64
		}
		if err := o.Payload(Table2Key(i, disabled), &r); err != nil {
			return err
		}
		p := core.PaperTable2(r.Disabled)
		fmt.Fprintf(w, "%-32s %18.2f %12.3g %14.2f %12.3g\n",
			r.Disabled, float64(r.MaxNoise)/float64(time.Microsecond), r.NoiseRate, p.MaxNoiseUS, p.NoiseRate)
	}
	return nil
}

// writeFigure3 renders the Figure 3 noise-length series of countermeasure cm.
func writeFigure3(w io.Writer, o *sweep.Outcome, cm string) error {
	var lengths []time.Duration
	if err := o.Payload(Figure3Key(cm), &lengths); err != nil {
		return err
	}
	s := noise.SeriesMicros(lengths)
	fmt.Fprintf(w, "# Figure 3 noise-length time series, countermeasure disabled: %s\n", cm)
	fmt.Fprintf(w, "# sample_id noise_length_us\n")
	for i := 0; i < s.Len(); i++ {
		fmt.Fprintf(w, "%d %.3f\n", int(s.T[i]), s.V[i])
	}
	return nil
}

// writeAttribution renders the per-source interference attribution of
// countermeasure cm over dur.
func writeAttribution(w io.Writer, o *sweep.Outcome, cm string, dur time.Duration) error {
	var attr []linux.Attribution
	if err := o.Payload(AttributionKey(cm), &attr); err != nil {
		return err
	}
	fmt.Fprintf(w, "# interference attribution on application cores over %v (countermeasure disabled: %s)\n", dur, cm)
	for _, a := range attr {
		fmt.Fprintln(w, a)
	}
	return nil
}

// figure4Points is the number of CDF points rendered per Figure 4 curve.
const figure4Points = 40

// writeFigure4 renders the Figure 4 CDF curves, merged across iterations.
func writeFigure4(w io.Writer, o *sweep.Outcome, cfg core.Figure4Config, iterations int) error {
	curves, err := MergeFigure4(o, cfg, iterations)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Figure 4: FWQ iteration-latency CDFs (worst %d nodes per config)\n", cfg.WorstNodes)
	fmt.Fprintf(w, "# node counts are subsamples of the paper's scales; see EXPERIMENTS.md\n")
	for _, c := range curves {
		fmt.Fprintf(w, "\n# curve %s (%d nodes), max iteration %.2f us\n", c.Label, c.Nodes, c.CDF.Max())
		fmt.Fprintf(w, "# iteration_us cumulative_probability\n")
		for _, pt := range c.CDF.Points(figure4Points) {
			fmt.Fprintf(w, "%.2f %.8f\n", pt.X, pt.Y)
		}
	}
	return nil
}

// writeFigures renders one relative-performance panel per figure spec. A
// failed point renders as a FAILED line (the run's exit status reports it);
// node counts above the app's maximum were never enumerated and are skipped.
func writeFigures(w io.Writer, o *sweep.Outcome, specs []core.FigureSpec) {
	for _, spec := range specs {
		fmt.Fprintf(w, "\n# Figure %s: %s on %s (relative performance, Linux = 1.0)\n",
			spec.Figure, spec.App, spec.Platform)
		fmt.Fprintf(w, "%-8s %10s %8s %16s %16s\n", "nodes", "mckernel", "+/-", "linux_runtime", "mck_runtime")
		app, appErr := apps.ByName(spec.App, spec.Platform)
		for _, n := range spec.Nodes {
			if appErr == nil && n > app.MaxNodes {
				continue
			}
			var c core.Comparison
			if err := o.Payload(FigurePointKey(spec.Figure, string(spec.Platform), spec.App, n), &c); err != nil {
				fmt.Fprintf(w, "%-8d FAILED: %v\n", n, err)
				continue
			}
			fmt.Fprintf(w, "%-8d %10.3f %8.3f %16s %16s\n",
				c.Nodes, c.Relative, c.RelErr, c.LinuxRuntime.Round(0), c.McKRuntime.Round(0))
		}
	}
}

// writeFault renders the fault-injection degradation table for both kernel
// configurations, then the full failure report of the McKernel point at the
// last intensity.
func writeFault(w io.Writer, o *sweep.Outcome, sec FaultSection) error {
	r := sec.resolved()
	fmt.Fprintf(w, "fault-injection sweep: %s, %d jobs/point x %d nodes, seed %d\n",
		platformName(r.Platform), r.Jobs, r.Nodes, r.Seed)
	fmt.Fprintf(w, "policy: %+v\n\n", cluster.DefaultRecoveryPolicy())
	fmt.Fprintf(w, "%-9s | %-42s | %-30s\n", "intensity", "mckernel", "linux")
	fmt.Fprintf(w, "%-9s | %4s %4s %4s %5s %8s %9s | %4s %4s %5s %8s\n",
		"(x base)", "done", "fb", "fail", "retry", "detect", "waste", "done", "fail", "retry", "waste")
	var heaviest FaultPointResult
	for _, k := range r.Intensities {
		var mck, lin FaultPointResult
		point := FaultPointSpec{Platform: r.Platform, Intensity: k, OS: "mckernel"}
		if err := o.Payload(FaultKey(point), &mck); err != nil {
			return err
		}
		point.OS = "linux"
		if err := o.Payload(FaultKey(point), &lin); err != nil {
			return err
		}
		mr, lr := mck.Report, lin.Report
		fmt.Fprintf(w, "%-9.2g | %4d %4d %4d %5d %7.2fs %8.1fs | %4d %4d %5d %7.1fs\n",
			k,
			mr.Completed, mr.Fallbacks, mr.Failed, mr.Retries,
			mr.MeanDetectionLatency().Seconds(), mr.WastedNodeSeconds,
			lr.Completed, lr.Failed, lr.Retries, lr.WastedNodeSeconds)
		heaviest = mck
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "columns: done = jobs completed, fb = completed only after graceful")
	fmt.Fprintln(w, "degradation to native Linux, fail = terminal failures, retry = re-run")
	fmt.Fprintln(w, "attempts, detect = mean failure-detection latency, waste = node-seconds")
	fmt.Fprintln(w, "burned in failed attempts (detected at the watchdog, not at job end).")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "failure report, heaviest McKernel point (%gx base rates):\n", r.Intensities[len(r.Intensities)-1])
	fmt.Fprint(w, heaviest.Text)
	return nil
}

// writeOperational renders the operational probe's summary.
func writeOperational(w io.Writer, o *sweep.Outcome) error {
	var text string
	if err := o.Payload(OperationalKey, &text); err != nil {
		return err
	}
	_, err := io.WriteString(w, text)
	return err
}

// writeMachineFWQ renders the full-machine FWQ result as indented JSON.
func writeMachineFWQ(w io.Writer, o *sweep.Outcome) error {
	var r apps.FWQMachineResult
	if err := o.Payload(MachineFWQKey, &r); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}
