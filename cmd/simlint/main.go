// Command simlint is the simulator's determinism-and-invariant checker:
// a multichecker running the nine analyzers in internal/lint/checks over
// the whole module. It is the compile-time half of the determinism
// contract — the byte-identical double-run CI gates are the runtime
// half. Exit codes follow go vet: 0 clean, 1 findings, 2 usage or
// internal error.
//
//	go run ./cmd/simlint ./...          # human-readable findings
//	go run ./cmd/simlint -json ./...    # CI annotation document
//	go run ./cmd/simlint -l ./...       # bare file:line list
package main

import (
	"os"

	"mkos/internal/lint/cli"
)

func main() {
	os.Exit(cli.Run(os.Args[1:], os.Stdout, os.Stderr))
}
