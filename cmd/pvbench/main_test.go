package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func names(exps []bench.Experiment) string {
	var out []string
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return strings.Join(out, ",")
}

func TestSelectExperiments(t *testing.T) {
	all := bench.Experiments(true)
	got, err := selectExperiments(all, "")
	if err != nil || names(got) != "linear,earley,depth,dtdsize,updates,closure" {
		t.Errorf("empty -only: %s, %v", names(got), err)
	}
	// Selection keeps table order, whatever order -only names them in.
	got, err = selectExperiments(all, "closure, linear")
	if err != nil || names(got) != "linear,closure" {
		t.Errorf("-only closure,linear: %s, %v", names(got), err)
	}
	// An unknown name is an error naming it, never a silent drop.
	for only, unknown := range map[string]string{
		"linear,bogus":   "bogus",
		"twotier,linear": "twotier",
		"throughput":     "throughput",
	} {
		got, err := selectExperiments(all, only)
		if err == nil || !strings.Contains(err.Error(), `"`+unknown+`"`) {
			t.Errorf("-only %s: ran %s, err %v; want an error naming %q", only, names(got), err, unknown)
		}
	}
}
