// Command pvbench regenerates the experiment tables X1-X7 and X9-X15: the
// empirical counterparts of the paper's analytical claims (X1-X6) plus the
// service layer's scaling experiments (X7 checking throughput, X9
// completion throughput, X10 sharded two-tier schema store,
// X11 async job-queue ingest, X12 durable-job write-ahead log, X13
// bounded-memory streaming checker, X14 verdict-receipt overhead, X15
// two-tier DFA fast path vs recognizer-only checking).
//
// Usage:
//
//	pvbench [-quick] [-json] [-stream-file-mb N]
//	        [-only linear,earley,depth,dtdsize,updates,closure,throughput,completion,schemastore,asyncingest,durability,streaming,receipt,twotier]
//
// -json emits the selected tables as a JSON array (the format committed
// under bench/, e.g. bench/X9.json, bench/X12.json and bench/X13.json).
// -stream-file-mb sizes X13's on-disk document (default 1024; the
// committed artifact uses a multi-GB file per the experiment's brief).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sizes, shorter timing budgets")
	only := flag.String("only", "", "comma-separated table names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit the tables as a JSON array instead of text")
	streamFileMB := flag.Int("stream-file-mb", 1024, "X13 on-disk document size in MB (quick mode shrinks it to 4)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}

	budget := 50 * time.Millisecond
	linSizes := []int{1000, 4000, 16000, 64000, 256000}
	earSizes := []int{8, 16, 32, 64, 128}
	depths := []int{2, 4, 8, 16, 24}
	dtdSizes := []int{8, 16, 32, 64}
	updSizes := []int{1000, 8000, 64000}
	fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	trials := 40
	workerCounts := []int{1, 2, 4, 8}
	corpus := 256
	schemaCount := 16 // X10's mixed-schema population
	shardCounts := []int{1, 2, 4, 8}
	streamMemMB := 8 // X13's in-cache document (the 15% acceptance bar)
	tputBudget := 1 * time.Second
	if *quick {
		budget = 2 * time.Millisecond
		linSizes = []int{500, 2000, 8000}
		earSizes = []int{8, 16, 32}
		depths = []int{2, 4, 8}
		dtdSizes = []int{8, 16}
		updSizes = []int{500, 4000}
		trials = 5
		corpus = 48
		schemaCount = 6
		shardCounts = []int{1, 4}
		tputBudget = 25 * time.Millisecond
		streamMemMB = 2
		*streamFileMB = 4
	}

	experiments := []struct {
		name string
		run  func() *bench.Table
	}{
		{"linear", func() *bench.Table { return bench.LinearScaling(linSizes, budget) }},
		{"earley", func() *bench.Table { return bench.EarleyComparison(earSizes, budget) }},
		{"depth", func() *bench.Table { return bench.DepthSensitivity(depths, budget) }},
		{"dtdsize", func() *bench.Table { return bench.DTDSize(dtdSizes, 4000, budget) }},
		{"updates", func() *bench.Table { return bench.UpdateCosts(updSizes, budget) }},
		{"closure", func() *bench.Table { return bench.StripClosure(fracs, trials, budget) }},
		{"throughput", func() *bench.Table { return bench.Throughput(workerCounts, corpus, tputBudget) }},
		{"completion", func() *bench.Table { return bench.CompletionThroughput(workerCounts, corpus, tputBudget) }},
		{"schemastore", func() *bench.Table { return bench.SchemaStore(shardCounts, schemaCount, corpus, tputBudget) }},
		{"asyncingest", func() *bench.Table { return bench.AsyncIngest(workerCounts, corpus, tputBudget) }},
		{"durability", func() *bench.Table { return bench.Durability(corpus, tputBudget) }},
		{"streaming", func() *bench.Table { return bench.StreamingMemory(streamMemMB, *streamFileMB, tputBudget) }},
		{"receipt", func() *bench.Table { return bench.ReceiptOverhead(corpus, tputBudget) }},
		{"twotier", func() *bench.Table { return bench.TwoTierCheck(corpus, tputBudget) }},
	}

	var tables []*bench.Table
	for _, e := range experiments {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		tables = append(tables, e.run())
	}
	if len(tables) == 0 {
		fmt.Fprintln(os.Stderr, "pvbench: no tables matched -only")
		os.Exit(2)
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
