package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/stat and
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go
// supports, whatever the kernel's internal tick rate.
const clockTicks = 100

// cpuSample is the first ("cpu") line of /proc/stat: time in clock ticks
// summed over every CPU, split by what the CPUs did.
type cpuSample struct {
	user, nice, system, idle, iowait, irq, softirq, steal uint64
}

// total is every tick the line accounts for. guest and guest_nice are
// already included in user and nice, so they are not added again.
func (s cpuSample) total() uint64 {
	return s.user + s.nice + s.system + s.idle + s.iowait + s.irq + s.softirq + s.steal
}

// parseCPULine parses the aggregate "cpu" line of /proc/stat.
func parseCPULine(line string) (cpuSample, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}, fmt.Errorf("not an aggregate cpu line: %q", line)
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return cpuSample{}, fmt.Errorf("cpu line field %d: %w", i+1, err)
		}
		v[i] = n
	}
	return cpuSample{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]}, nil
}

// readCPU samples /proc/stat.
func readCPU() (cpuSample, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuSample{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuSample{}, fmt.Errorf("reading /proc/stat: %w", err)
	}
	return parseCPULine(line)
}

// stealFrac is the share of all CPU time between two samples that the host
// stole: steal ticks over all ticks, summed over CPUs. Zero when no time
// passed.
func stealFrac(a, b cpuSample) float64 {
	dt := b.total() - a.total()
	if dt == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(dt)
}

// busyStealFrac is the share of the time the CPUs wanted to run that the
// host stole: steal over steal plus busy ticks, idle excluded. It is the
// right factor for one busy thread on a multi-CPU guest, where idle CPUs
// dilute stealFrac.
func busyStealFrac(a, b cpuSample) float64 {
	idle := (b.idle - a.idle) + (b.iowait - a.iowait)
	dt := b.total() - a.total() - idle
	if dt == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(dt)
}

// unsteal removes host steal from a wall-clock quantity: with a share s of
// CPU time stolen, work that needed d of CPU took d/(1-s) of wall time, so
// the corrected value is d*(1-s). On a steal-free host it is the identity.
func unsteal(d, steal float64) float64 { return d * (1 - steal) }

// procCPU reads a process's user+system CPU time, in microseconds, from
// /proc/<pid>/stat. The times cover every thread of the process.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(data)
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line, in microseconds. The command name (field 2) may
// hold spaces and parentheses, so fields are counted from its closing
// parenthesis.
func parseProcStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc/<pid>/stat: no command name")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, errors.New("malformed /proc/<pid>/stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("malformed /proc/<pid>/stat: %w", err)
	}
	return float64(ut+st) * 1e6 / clockTicks, nil
}

// procMemMB reads one memory line (VmHWM, VmRSS) of a process's
// /proc/<pid>/status, in MB.
func procMemMB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusMB(data, key)
}

// parseStatusMB extracts a "<key>: <n> kB" line from a /proc/<pid>/status
// file, in MB.
func parseStatusMB(data []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed %s line %q", key, line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s line %q: %w", key, line, err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("no %s line", key)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples and how many samples lie strictly beyond that rank. A tail
// percentile is only worth reporting when beyond is at least ten. samples
// is sorted in place.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(samples)
	// The small slack keeps p*n/100 from rounding up past an exact rank
	// (99.9/100*1000 is 999.0000000000001 in floating point).
	rank := int(math.Ceil(p*float64(len(samples))/100 - 1e-9))
	rank = max(1, min(rank, len(samples)))
	return samples[rank-1], len(samples) - rank
}

// median is the middle value of samples (the mean of the two middle values
// for an even count). samples is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of samples by
// the "exclusive" method of Python's statistics.quantiles(data, n=4), so a
// steadiness figure here reads the same as one computed from the printed
// values in Python. It needs at least two samples; samples is sorted in
// place.
func quartiles(samples []float64) (q [3]float64, err error) {
	ld := len(samples)
	if ld < 2 {
		return q, errors.New("quartiles need at least two samples")
	}
	sort.Float64s(samples)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (samples[j-1]*float64(4-delta) + samples[j]*float64(delta)) / 4
	}
	return q, nil
}

// mean is the arithmetic mean of samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
