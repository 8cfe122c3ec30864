package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p90 needs at least 100 samples, so that ten fall above it.
const minTail = 10

// rank returns the nearest-rank index of quantile q in n sorted
// samples (the smallest index whose cumulative share reaches q).
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tailOK reports whether n samples leave at least minTail of them
// beyond the quantile q, the rule for reporting that percentile.
func tailOK(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= minTail
}

// quantile returns the nearest-rank quantile q of xs (0 for none).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// median returns the middle of xs, averaging the two middle samples
// of an even count (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// trimmedMean returns the mean of xs without its lowest and highest
// share trim of samples (a whole count each side, rounded down; 0 for
// none). xs is not modified.
func trimmedMean(xs []float64, trim float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	return mean(s[k : len(s)-k])
}

// clock abstracts time for the open-loop generator, so its due-time
// arithmetic is testable without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one open-loop request: when it was due, when it was
// actually sent (later than due when the previous request on the same
// connection was still running), and when its response arrived.
type sample struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is measured from when the request was due, so a stall also
// charges the wait it imposes on the requests queued behind it.
func (s sample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Lateness is how far behind schedule the generator sent the request.
func (s sample) Lateness() time.Duration { return s.Sent.Sub(s.Due) }

// Service is the time from sending to the response.
func (s sample) Service() time.Duration { return s.Done.Sub(s.Sent) }

// arrivals returns the send offsets of an open loop of independent
// users: round(rate * horizon) requests at uniformly random times in
// [0, horizon), sorted. That is a Poisson process conditioned on its
// count, so the offered load is the same for every seed while a
// client's requests keep no fixed phase against another client's.
func arrivals(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*horizon.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(horizon)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop issues one request per due offset on one connection:
// request i is due at start + due[i] whatever happened to earlier
// ones, and is sent as soon as it is due and the connection is free.
// stop is polled before each request; requests not sent when it fires
// are not recorded.
func openLoop(clk clock, start time.Time, due []time.Duration, stop func() bool, do func(i int) error) []sample {
	out := make([]sample, 0, len(due))
	for i, off := range due {
		at := start.Add(off)
		clk.SleepUntil(at)
		if stop() {
			break
		}
		sent := clk.Now()
		err := do(i)
		out = append(out, sample{Due: at, Sent: sent, Done: clk.Now(), Err: err})
	}
	return out
}
