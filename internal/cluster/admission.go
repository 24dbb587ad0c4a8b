package cluster

import (
	"math"
	"time"
)

// tokenBucket is the admission controller: rate tokens/second sustained,
// burst tokens of headroom, refilled lazily on the virtual clock. A request
// is admitted iff a whole token is available, so over an interval [0, T] the
// fleet admits at most burst + rate*T requests and rejects exactly the
// over-budget excess — no queue can grow without bound behind it.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   int64 // virtual nanoseconds of the last refill
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	// Clamp the effective burst to one whole token: refill caps tokens at
	// burst, and admission needs tokens >= 1, so any burst below 1 (a
	// "pure-rate" limiter with burst 0, or a fractional burst) would reject
	// every request forever no matter the rate.
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// allow consumes one token at virtual time now, refilling first. Calls must
// come in non-decreasing time order, which the event loop guarantees.
func (b *tokenBucket) allow(now time.Duration) bool {
	ns := now.Nanoseconds()
	if ns > b.last {
		b.tokens = math.Min(b.burst, b.tokens+float64(float64(ns-b.last)/1e9*b.rate))
		b.last = ns
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
