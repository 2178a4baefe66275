package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mkos/internal/sweep"
	"mkos/specs"
)

// TestMain doubles this test binary as the repro command: re-exec'd with
// REPRO_TEST_MAIN=1 it runs main() on its own arguments, so the tests
// drive the real flag set and exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInterruptWritesProfileNoArtifacts: a SIGINT once the campaign has
// started exits 130, still writes the -cpuprofile (interrupted runs are the
// ones worth profiling), and leaves no partial artifacts in -outdir.
func TestInterruptWritesProfileNoArtifacts(t *testing.T) {
	dir := t.TempDir()
	outdir := filepath.Join(dir, "out")
	prof := filepath.Join(dir, "cpu.pprof")
	args := []string{"-quick", "-j", "1", "-outdir", outdir, "-cpuprofile", prof}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_TEST_MAIN=1")
	var stdout, log bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if strings.HasPrefix(sc.Text(), "sweep repro: ") {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	io.Copy(&log, stderr)
	var exit *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("repro %v: %v, want exit 130\n%s%s", args, err, stdout.Bytes(), log.Bytes())
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("cpuprofile not written: %v", err)
	}
	entries, err := os.ReadDir(outdir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("interrupted run left artifact %s", e.Name())
	}
}

// TestSharesCacheWithSpecRuns: the merged campaign keeps each spec's seeds,
// so after every quick paper spec ran alone into a cache dir, as
// `sweep -spec` runs it, repro on that cache executes no trial.
func TestSharesCacheWithSpecRuns(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	total := 0
	for _, name := range specs.Paper {
		s, err := specs.Load("quick/" + name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		o, err := sweep.Run(c, sweep.Options{Workers: 2, CacheDir: cache})
		if err == nil {
			err = o.FirstErr()
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total += len(c.Trials)
	}
	args := []string{"-quick", "-j", "2", "-outdir", filepath.Join(dir, "out"), "-cache-dir", cache}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("repro %v: %v\n%s", args, err, out)
	}
	if want := fmt.Sprintf("campaign repro: %d trials: 0 executed, %d cached, 0 failed\n", total, total); !bytes.Contains(out, []byte(want)) {
		t.Fatalf("repro on the specs' cache did not print %q:\n%s", want, out)
	}
}
