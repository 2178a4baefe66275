package worker

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"syscall"
)

// incarnation is one started worker as the supervisor drives it, whichever
// transport started it: the three protocol pipes plus lifecycle control.
type incarnation struct {
	stdin          io.WriteCloser
	stdout, stderr io.Reader
	// pid is the worker process id; 0 for the in-memory transport, which
	// leaves the RSS ceiling and the chaos WorkerKiller nothing to act on.
	pid int
	// terminate asks for a cooperative drain (SIGTERM); kill stops the
	// worker now (SIGKILL).
	terminate, kill func()
	// wait blocks until the worker has exited and reports its status: nil
	// for exit 0, otherwise an error reading "exit status N" or
	// "signal: killed". Call it only after stdout and stderr reach EOF.
	wait func() error
}

// start begins one incarnation on the transport Cmd selects.
func (s *Supervisor) start() (*incarnation, error) {
	if len(s.Cmd) == 0 {
		return startInMemory(s.Build), nil
	}
	return startProcess(s.Cmd, s.Env)
}

// startProcess is the production transport: a child process running argv,
// tied to the daemon's life by the parent-death signal where supported.
func startProcess(argv, env []string) (*incarnation, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	if len(env) > 0 {
		cmd.Env = env
	}
	setPdeathsig(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("worker stdout: %w", err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("worker stderr: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning worker: %w", err)
	}
	return &incarnation{
		stdin: stdin, stdout: stdout, stderr: stderr, pid: cmd.Process.Pid,
		terminate: func() { _ = cmd.Process.Signal(syscall.SIGTERM) },
		kill:      func() { _ = cmd.Process.Kill() },
		wait:      cmd.Wait,
	}, nil
}

// startInMemory is the test and embedding transport: the worker protocol
// loop on a goroutine of this process, connected by io.Pipes and building
// campaigns with build. Terminate cancels the worker's context; kill also
// closes its stdout so the supervisor sees EOF at once. wait returns only
// after the loop has returned, so the campaign journal's flock is released
// by then, exactly as a reaped child process releases it.
func startInMemory(build BuildFunc) *incarnation {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errR, errW := io.Pipe()
	// The worker's context is a fresh root, not the supervisor's: a child
	// process inherits nothing from the daemon's context either, and the
	// daemon mirrors its own trial spans from the protocol events.
	//simlint:allow ctxflow — in-memory worker root context: the transport stands in for an exec boundary, and terminate/kill are its cancellation
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	var code int
	go func() {
		defer close(exited)
		code = run(ctx, 0, inR, outW, errW, build)
		cancel()
		inR.Close() // unblocks a request write the loop stopped reading
		outW.Close()
		errW.Close()
	}()
	return &incarnation{
		stdin: inW, stdout: outR, stderr: errR,
		terminate: cancel,
		kill:      func() { cancel(); outW.Close() },
		wait: func() error {
			<-exited
			if code != 0 {
				return fmt.Errorf("exit status %d", code)
			}
			return nil
		},
	}
}
