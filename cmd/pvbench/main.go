// Command pvbench regenerates the experiment tables X1-X6: the empirical
// counterparts of the paper's analytical claims (linear-time checking,
// Earley on G' vs the ECRecognizer, the depth factor, DTD size, the
// incremental update checks and closure under tag stripping). The service
// layer is benchmarked end to end by the servebench module instead
// (servebench/run.sh).
//
// Usage:
//
//	pvbench [-quick] [-json] [-only linear,earley,depth,dtdsize,updates,closure]
//
// -json emits the selected tables as a JSON array. An unknown -only name
// exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sizes, shorter timing budgets")
	only := flag.String("only", "", "comma-separated table names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit the tables as a JSON array instead of text")
	flag.Parse()

	exps, err := selectExperiments(bench.Experiments(*quick), *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvbench: %v\n", err)
		os.Exit(2)
	}
	tables := make([]*bench.Table, len(exps))
	for i, e := range exps {
		tables[i] = e.Run()
	}
	if *asJSON {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pvbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
		return
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
}

// selectExperiments keeps the experiments named in the comma-separated
// only list, in table order; an empty list keeps them all. A name that
// matches no experiment is an error naming it and the known ones.
func selectExperiments(all []bench.Experiment, only string) ([]bench.Experiment, error) {
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []bench.Experiment
	known := make([]string, len(all))
	for i, e := range all {
		known[i] = e.Name
		if want[e.Name] {
			out = append(out, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("-only: unknown table %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(known, ","))
	}
	return out, nil
}
