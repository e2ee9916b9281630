// Command simlint runs the project's static-analysis suite
// (internal/lint): the layering, determinism and seeding invariants
// that plain go vet cannot see. Its three analyzers are layering,
// detorder and seedrand; `simlint -list` prints them.
//
// `simlint ./...` loads the whole module containing the working
// directory, _test.go files included, runs every analyzer on each
// package and then the stale-suppression audit. Package patterns are
// accepted for familiarity, but the load is always the whole module: a
// suppression is only stale against the full build. Names passed to
// the simulator's registries (schemes, knobs, benchmarks, workload
// entries) are not checked here: sim.New and SuiteSpecs reject an
// unknown name, listing the valid ones, before anything runs. This is
// the one driver; CI gates on its JSON report.
//
// Exit status is 0 when clean, 1 on usage or load errors, 2 when
// diagnostics were reported (mirroring go vet).
package main

import (
	"flag"
	"fmt"
	"os"

	//simlint:ignore layering simlint is the lint suite's own driver, not a simulator client; the sim facade is not its seam
	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	formatFlag := flag.String("format", "text", "diagnostic output format: text (stderr lines) or json (machine-readable array on stdout)")
	listFlag := flag.Bool("list", false, "list the suite's checks and exit")
	flag.Usage = usage
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *formatFlag != "text" && *formatFlag != "json" {
		fmt.Fprintf(os.Stderr, "simlint: unknown -format %q (valid: text, json)\n", *formatFlag)
		return 1
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	root, pkgs, err := lint.LoadModule(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ds := lint.Run(lint.Fset(), pkgs, lint.Analyzers())
	if *formatFlag == "json" {
		if err := lint.WriteJSON(os.Stdout, lint.Fset(), root, ds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		for _, d := range ds {
			fmt.Fprintln(os.Stderr, d.String(lint.Fset()))
		}
	}
	if len(ds) > 0 {
		return 2
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  simlint [-format text|json] [packages]  analyze the module containing the working directory
  simlint -list                           list checks
`)
	flag.PrintDefaults()
}
