package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute
// a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock measures from its creation.
type wallClock struct{ base time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.base) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// arrivals draws a seeded Poisson schedule at rate per second: the due
// times (from 0) of every request that falls within span.
func arrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return dues
		}
		dues = append(dues, d)
	}
}

// sent is one open-loop request's timing: late is how long after its
// due time it was sent, latency how long after its due time it was
// answered — so a stall also counts against the requests it delayed.
type sent struct {
	late, latency time.Duration
	ok            bool
}

// openLoop sends request i at dues[i] from at most senders goroutines.
// A sender takes the next due request only when it is free, so when
// every sender is busy the request goes out late and the lateness is
// recorded rather than hidden. send reports whether the request
// succeeded.
func openLoop(c clock, dues []time.Duration, senders int, send func(i int) bool) []sent {
	out := make([]sent, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dues) {
					return
				}
				c.sleepUntil(dues[i])
				start := c.now()
				ok := send(i)
				done := c.now()
				out[i] = sent{late: start - dues[i], latency: done - dues[i], ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}
