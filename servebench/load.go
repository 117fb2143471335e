package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Load shape: a closed loop of clients, each on its own connection,
// sending its next request only when the previous reply has been read and
// checked. pvserve's callers are pipelines that wait for each reply.
const (
	clients  = 2
	warmUp   = 2 * time.Second
	window   = time.Second // steal, CPU and throughput are sampled per window
	pollWait = time.Millisecond
)

// sample is one finished request.
type sample struct {
	end     time.Time
	latency time.Duration
	docs    int
	bytes   int
	failed  bool
	job     *jobTiming // jobs_durable only
}

// jobTiming is one async job's lifecycle as the client saw it.
type jobTiming struct {
	queueWait, run, fetch time.Duration
	polls                 int
}

// loadClient is one closed-loop client.
type loadClient struct {
	hc      *http.Client
	base    string
	w       *workload
	samples []sample
	errs    []error // first few failures, for the report
}

// exchange sends one request of the workload and checks its reply. The
// returned latency spans what "one request" means for the workload: a
// whole stream, a whole batch, job submit through receipt fetched, or one
// raw upload.
func (c *loadClient) exchange(r *request) (time.Duration, *jobTiming, error) {
	start := time.Now()
	switch c.w.name {
	case "check_stream":
		body, err := do(c.hc, http.MethodPost, c.base+"/check/stream", r.body, nil, http.StatusOK)
		lat := time.Since(start)
		if err != nil {
			return lat, nil, err
		}
		return lat, nil, checkStreamReply(body, r.docs)
	case "complete_batch":
		body, err := do(c.hc, http.MethodPost, c.base+"/complete", r.body, nil, http.StatusOK)
		lat := time.Since(start)
		if err != nil {
			return lat, nil, err
		}
		return lat, nil, checkCompleteReply(body, r.docs, r.comps)
	case "raw_large":
		d := &r.docs[0]
		hdr := http.Header{"X-Schema-Ref": {r.schema.ref}, "Content-Type": {"application/xml"}}
		body, err := do(c.hc, http.MethodPost, c.base+"/check/raw?id="+d.id, r.body, hdr, http.StatusOK)
		lat := time.Since(start)
		if err != nil {
			return lat, nil, err
		}
		return lat, nil, checkRawReply(body, d)
	case "jobs_durable":
		return c.job(r, start)
	}
	return 0, nil, fmt.Errorf("unknown workload %q", c.w.name)
}

// jobInfo is the subset of GET /jobs/{id} the client reads.
type jobInfo struct {
	State      string     `json:"state"`
	Error      string     `json:"error"`
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt"`
	FinishedAt *time.Time `json:"finishedAt"`
}

// runJob submits body as an async check job with a receipt and polls it
// every pollWait until it is done, returning the job's URL, its final info
// and the number of polls.
func runJob(hc *http.Client, base string, body []byte) (string, jobInfo, int, error) {
	var info jobInfo
	data, err := do(hc, http.MethodPost, base+"/batch?async=1&receipt=1", body, nil, http.StatusAccepted)
	if err != nil {
		return "", info, 0, err
	}
	var acc struct {
		JobID string `json:"jobId"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		return "", info, 0, err
	}
	url := base + "/jobs/" + acc.JobID
	for polls := 1; ; polls++ {
		data, err := do(hc, http.MethodGet, url, nil, nil, http.StatusOK)
		if err != nil {
			return url, info, polls, err
		}
		if err := json.Unmarshal(data, &info); err != nil {
			return url, info, polls, err
		}
		switch info.State {
		case "done":
			return url, info, polls, nil
		case "queued", "running":
			time.Sleep(pollWait)
		default:
			return url, info, polls, fmt.Errorf("job %s ended %s: %s", acc.JobID, info.State, info.Error)
		}
	}
}

// job runs one async job end to end: submit with a receipt, poll until
// done, fetch results and receipt, then delete the job so the server's
// retained state does not grow with run length.
func (c *loadClient) job(r *request, start time.Time) (time.Duration, *jobTiming, error) {
	url, info, polls, err := runJob(c.hc, c.base, r.body)
	if err != nil {
		return time.Since(start), nil, err
	}
	doneSeen := time.Now()
	results, err := do(c.hc, http.MethodGet, url+"/results", nil, nil, http.StatusOK)
	if err != nil {
		return time.Since(start), nil, err
	}
	rec, err := do(c.hc, http.MethodGet, url+"/receipt", nil, nil, http.StatusOK)
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	jt := &jobTiming{fetch: time.Since(doneSeen), polls: polls}
	if info.StartedAt != nil && info.FinishedAt != nil {
		jt.queueWait = info.StartedAt.Sub(info.CreatedAt)
		jt.run = info.FinishedAt.Sub(*info.StartedAt)
	}
	if _, err := do(c.hc, http.MethodDelete, url, nil, nil, http.StatusOK); err != nil {
		return lat, nil, err
	}
	if err := checkVerdictLines(splitLines(results), r.docs); err != nil {
		return lat, nil, err
	}
	return lat, jt, checkReceipt(rec, r.root, r.leaves)
}

// tick samples, at one window boundary, the system CPU counters and
// pvserve's CPU time and resident set.
type tick struct {
	at  time.Time
	cpu cpuSample
	srv float64 // pvserve user+system CPU, µs
	rss float64 // pvserve resident set, MB
}

func takeTick(pid int) (tick, error) {
	t := tick{at: time.Now()}
	var err error
	if t.cpu, err = readCPU(); err != nil {
		return t, err
	}
	if t.srv, err = procCPU(pid); err != nil {
		return t, err
	}
	t.rss, err = procMemMB(pid, "VmRSS")
	return t, err
}

// measurement is everything the measured phase observed.
type measurement struct {
	ticks   []tick   // window boundaries, len = windows+1
	samples []sample // requests that finished in the measured phase
	// otherFailures counts failed requests that finished in the warm-up or
	// the drain, outside the measured phase.
	otherFailures int
	errs          []error
	before        statsSnapshot
	after         statsSnapshot
}

// drive runs the closed loop: a warm-up, then seconds one-second windows
// sampled for steal and pvserve CPU, then a drain of in-flight requests.
// Requests count toward the window in which they finished.
func drive(s *server, w *workload, seconds int) (*measurement, error) {
	var stop atomic.Bool
	var cursor atomic.Int64
	cl := make([]*loadClient, clients)
	var wg sync.WaitGroup
	for i := range cl {
		c := &loadClient{hc: newClient(), base: s.base, w: w}
		cl[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			for !stop.Load() {
				r := w.reqs[int(cursor.Add(1)-1)%len(w.reqs)]
				lat, jt, err := c.exchange(r)
				sm := sample{end: time.Now(), latency: lat, docs: len(r.docs), bytes: r.bytes, failed: err != nil, job: jt}
				if err != nil && len(c.errs) < 3 {
					c.errs = append(c.errs, err)
				}
				c.samples = append(c.samples, sm)
			}
		}()
	}
	m := &measurement{}
	err := func() error {
		time.Sleep(warmUp)
		var err error
		if m.before, err = s.stats(); err != nil {
			return err
		}
		t0, err := takeTick(s.pid())
		if err != nil {
			return err
		}
		m.ticks = append(m.ticks, t0)
		for k := 1; k <= seconds; k++ {
			time.Sleep(time.Until(t0.at.Add(time.Duration(k) * window)))
			t, err := takeTick(s.pid())
			if err != nil {
				return err
			}
			m.ticks = append(m.ticks, t)
		}
		m.after, err = s.stats()
		return err
	}()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	start, end := m.ticks[0].at, m.ticks[len(m.ticks)-1].at
	for _, c := range cl {
		m.errs = append(m.errs, c.errs...)
		for _, sm := range c.samples {
			switch {
			case sm.end.Before(start) || sm.end.After(end):
				if sm.failed {
					m.otherFailures++
				}
			default:
				m.samples = append(m.samples, sm)
			}
		}
	}
	return m, nil
}

// e2e is the end-to-end result of one run: the reported metrics and the
// uncorrected whole-run values printed beside them.
type e2e struct {
	attempted, failed     int // every request that finished in the measured phase
	docs                  int // documents answered in the windows the metrics cover
	docsPerS, rawDocsPS   float64
	cpuUSPerDoc, rawCPU   float64 // pvserve CPU µs per document
	p50, p99              float64 // ms
	rawP50, rawP99        float64 // ms
	samples, p99Beyond    int     // latencies behind the percentiles, and beyond p99
	steal                 float64 // whole measured phase
	windowSteal           []float64
	windowDocs            []int
	windowCPU             []float64 // pvserve CPU µs per document, uncorrected
	kept                  []bool    // windows the metrics cover
	rssMB                 float64   // median pvserve resident set over window boundaries
	mbPerS                float64
	queueWait, run, fetch float64 // ms, job medians
	pollsPerJob           float64
}

// summarize turns a measurement into end-to-end metrics. The measured
// phase is cut into one-second windows, and the metrics cover the quieter
// half of them, ranked by the share s of CPU time the host stole (ties
// alternate, so a steal-free run keeps every other window). In each kept
// window the wall time, the pvserve CPU time and the latency of every
// request finishing there are scaled by 1-s: stolen time inflates the wall
// clock and, on this kind of host, the CPU time charged to the running
// process. Steal arrives in bursts that stall a few requests for far longer
// than the share suggests; dropping the noisier half keeps them out of the
// tail. The uncorrected values over every window are printed beside.
func summarize(m *measurement) e2e {
	var r e2e
	nw := len(m.ticks) - 1
	first := m.ticks[0].at
	idx := func(t time.Time) int {
		k := int(t.Sub(first) / window)
		return max(0, min(k, nw-1))
	}
	r.windowSteal = make([]float64, nw)
	r.windowDocs = make([]int, nw)
	r.windowCPU = make([]float64, nw)
	order := make([]int, nw)
	var rss []float64
	for k := 0; k < nw; k++ {
		r.windowSteal[k] = stealFrac(m.ticks[k].cpu, m.ticks[k+1].cpu)
		order[k] = k
		rss = append(rss, m.ticks[k+1].rss)
	}
	r.rssMB = median(rss)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if r.windowSteal[a] != r.windowSteal[b] {
			return r.windowSteal[a] < r.windowSteal[b]
		}
		return a%2 < b%2
	})
	r.kept = make([]bool, nw)
	for _, k := range order[:(nw+1)/2] {
		r.kept[k] = true
	}

	a, b := m.ticks[0], m.ticks[nw]
	wall := b.at.Sub(a.at).Seconds()
	// A failed request misses every latency limit: it enters the
	// percentiles as lasting the whole measured phase.
	var lat, raw, qw, run, fetch, polls []float64
	allDocs, wbytes := 0, 0
	for _, sm := range m.samples {
		k := idx(sm.end)
		r.attempted++
		ms := float64(sm.latency) / float64(time.Millisecond)
		if sm.failed {
			r.failed++
			ms = wall * 1e3
		} else {
			r.windowDocs[k] += sm.docs
			allDocs += sm.docs
			wbytes += sm.bytes
		}
		raw = append(raw, ms)
		if r.kept[k] {
			lat = append(lat, unsteal(ms, r.windowSteal[k]))
		}
		if jt := sm.job; jt != nil {
			qw = append(qw, jt.queueWait.Seconds()*1e3)
			run = append(run, jt.run.Seconds()*1e3)
			fetch = append(fetch, jt.fetch.Seconds()*1e3)
			polls = append(polls, float64(jt.polls))
		}
	}
	var quiet, cpu float64 // kept windows: steal-corrected seconds and CPU µs
	for k := 0; k < nw; k++ {
		a, b := m.ticks[k], m.ticks[k+1]
		r.windowCPU[k] = ratio(b.srv-a.srv, float64(r.windowDocs[k]))
		if r.kept[k] {
			quiet += unsteal(b.at.Sub(a.at).Seconds(), r.windowSteal[k])
			cpu += unsteal(b.srv-a.srv, r.windowSteal[k])
			r.docs += r.windowDocs[k]
		}
	}
	r.steal = stealFrac(a.cpu, b.cpu)
	r.docsPerS = ratio(float64(r.docs), quiet)
	r.cpuUSPerDoc = ratio(cpu, float64(r.docs))
	r.rawDocsPS = float64(allDocs) / wall
	r.rawCPU = ratio(b.srv-a.srv, float64(allDocs))
	r.mbPerS = float64(wbytes) / (1 << 20) / wall
	r.samples = len(lat)
	if len(lat) > 0 {
		r.p50, _ = percentile(lat, 50)
		r.p99, r.p99Beyond = percentile(lat, 99)
		r.rawP50, _ = percentile(raw, 50)
		r.rawP99, _ = percentile(raw, 99)
	}
	if len(qw) > 0 {
		r.queueWait, r.run, r.fetch = median(qw), median(run), median(fetch)
		r.pollsPerJob = mean(polls)
	}
	return r
}
