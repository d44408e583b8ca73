// Command visdbbench regenerates the paper's figures and quantitative
// claims (see DESIGN.md §4 for the experiment index) and prints
// paper-expectation vs measured-outcome reports.
//
// Usage:
//
//	visdbbench               # run everything, images into out/
//	visdbbench -exp f4       # one experiment
//	visdbbench -out ""       # skip image output
//	visdbbench -list         # list experiment ids
//
// It is the paper-experiment runner only; the repository's performance
// benchmark is visdbperf (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment id (f1a f1b f2 f3 f4 f5 c1 c2 c3 c4 a1 a2 a3) or 'all'")
		out  = flag.String("out", "out", "directory for generated images (empty to skip)")
		list = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.ID)
		}
		return
	}
	if err := run(*exp, *out); err != nil {
		fmt.Fprintln(os.Stderr, "visdbbench:", err)
		os.Exit(1)
	}
}

func run(exp, out string) error {
	if exp == "all" {
		reports, err := experiments.All(out)
		for _, r := range reports {
			fmt.Println(r.Format())
		}
		if err != nil {
			return err
		}
		failed := 0
		for _, r := range reports {
			if !r.Pass {
				failed++
			}
		}
		fmt.Printf("%d experiments, %d failed\n", len(reports), failed)
		if failed > 0 {
			return fmt.Errorf("%d experiments failed the shape check", failed)
		}
		return nil
	}
	for _, e := range experiments.Registry() {
		if strings.EqualFold(e.ID, exp) {
			r, err := e.Run(out)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
			if !r.Pass {
				return fmt.Errorf("experiment %s failed the shape check", r.ID)
			}
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q (use -list)", exp)
}
