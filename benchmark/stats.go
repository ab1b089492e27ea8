package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup times setup setupSamples times, each time running it
// setupBatch times in a row after a collection, and sets setup_s to
// the median per-call CPU time in seconds (see cpuTime). A single
// set-up takes well under a millisecond, so one call alone is mostly
// page-fault and scheduling noise. A traced phase reports no end-to-end
// metric, so it skips this and its profile holds only the repetitions
// that instrs_per_s measures.
func (o *outcome) timeSetup(traced bool, setup func() error) error {
	if traced {
		return nil
	}
	var xs []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		start := cpuTime()
		for k := 0; k < setupBatch; k++ {
			if err := setup(); err != nil {
				return err
			}
		}
		xs = append(xs, (cpuTime()-start).Seconds()/setupBatch)
	}
	o.endToEnd["setup_s"] = median(xs)
	return nil
}

// warmUp repeats rep for warmUpFor (and at least once) before a plain
// phase measures anything. A fresh process's first repetitions, about
// its first second of work, ran up to half again as long as the ones
// after them, so counted they would set the tail of the job latencies.
// A traced phase follows the plain phase in the same process, so it is
// warm already, and its profile holds only measured work.
func warmUp(traced bool, rep func() error) error {
	if traced {
		return nil
	}
	for start := time.Now(); ; {
		if err := rep(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if time.Since(start) >= warmUpFor {
			return nil
		}
	}
}

const warmUpFor = time.Second

// cpuTime is the process's user plus system CPU time so far. Host-time
// metrics of work the process does itself are measured in CPU time:
// the kernel leaves out time the hypervisor ran other guests on this
// CPU (steal), which on a shared host comes in episodes of a minute or
// more and would otherwise move wall-clock figures by a quarter. Work
// the runtime does for the run on the second CPU, such as concurrent
// garbage collection, is counted. 0 where the platform cannot say.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler records the process's resident memory every interval
// until stopped. A single high-water mark depends on where garbage
// collections happened to fall; a high percentile of many samples is
// a steadier peak.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			data, err := os.ReadFile("/proc/self/statm")
			if err != nil {
				return
			}
			if f := strings.Fields(string(data)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					s.samples = append(s.samples, pages*page/(1<<20))
				}
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the 99th percentile of its
// samples, or the kernel's high-water mark where /proc is unavailable.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) > 0 {
		return percentile(s.samples, 99)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
