package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness smoke test is itself a micro-benchmark")
	}
	exps := Experiments(true)
	if len(exps) != 6 {
		t.Fatalf("want 6 experiments, got %d", len(exps))
	}
	byName := map[string]*Table{}
	for _, exp := range exps {
		tb := exp.Run()
		if tb.Name != exp.Name {
			t.Errorf("experiment %s produced table %s", exp.Name, tb.Name)
		}
		byName[tb.Name] = tb
		if len(tb.Rows) == 0 {
			t.Errorf("table %s has no rows", tb.Name)
		}
		out := tb.String()
		if !strings.Contains(out, tb.Name) {
			t.Errorf("table rendering missing name:\n%s", out)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("table %s: row width %d vs header %d", tb.Name, len(row), len(tb.Header))
			}
		}
		if js, err := tb.JSON(); err != nil || !strings.Contains(string(js), `"name": "`+tb.Name+`"`) {
			t.Errorf("table %s JSON: %v %s", tb.Name, err, js)
		}
	}
	// X6: Theorem 2 — PV rate must be 100% in every row.
	for _, row := range byName["closure"].Rows {
		if row[2] != "100%" {
			t.Errorf("closure violated: %v", row)
		}
	}
	// X3: all depth rows must accept.
	for _, row := range byName["depth"].Rows {
		if row[2] != "true" {
			t.Errorf("depth row rejected: %v", row)
		}
	}
	// X3: recognizer count grows with depth.
	var prev int
	for i, row := range byName["depth"].Rows {
		nRec, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && nRec <= prev {
			t.Errorf("recognizer count not increasing: %v", byName["depth"].Rows)
		}
		prev = nRec
	}
	// X2: Earley must be slower than the ECRecognizer on the largest input.
	last := byName["earley"].Rows[len(byName["earley"].Rows)-1]
	fast, _ := strconv.Atoi(last[1])
	slow, _ := strconv.Atoi(last[2])
	if slow <= fast {
		t.Errorf("Earley (%d ns) not slower than ECRecognizer (%d ns)", slow, fast)
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d := timeIt(5*time.Millisecond, func() {
		calls++
		time.Sleep(100 * time.Microsecond)
	})
	if calls < 2 {
		t.Errorf("timeIt ran only %d calls", calls)
	}
	if d <= 0 {
		t.Errorf("per-call duration %v", d)
	}
}
