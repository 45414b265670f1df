package tenant

// Bucket is a virtual-time token bucket: one token per admitted job,
// refilled at one token per GapNS of virtual time up to Burst. All
// arithmetic is integer, so refill accounting is exact and replayable —
// leftover sub-token time carries in the credit field instead of being
// rounded away. Not goroutine-safe; the job service drives it under its
// own lock.
type Bucket struct {
	gap    int64 // ns per token; <=0 = unlimited
	burst  int64
	tokens int64
	credit int64 // accumulated refill remainder, in [0, gap)
	last   int64 // virtual time of the last refill
}

// NewBucket builds a bucket refilling one token per gapNS up to burst
// tokens, starting full. gapNS <= 0 disables rate limiting entirely.
func NewBucket(gapNS, burst int64) *Bucket {
	if burst < 1 {
		burst = 1
	}
	return &Bucket{gap: gapNS, burst: burst, tokens: burst}
}

// refill credits tokens for the virtual time elapsed since the last call.
func (b *Bucket) refill(now int64) {
	if b.gap <= 0 || now <= b.last {
		return
	}
	total := (now - b.last) + b.credit
	b.tokens += total / b.gap
	b.credit = total % b.gap
	if b.tokens >= b.burst {
		b.tokens = b.burst
		b.credit = 0 // a full bucket does not bank fractional refill
	}
	b.last = now
}

// Take consumes one token at virtual time now, reporting whether one was
// available. Unlimited buckets always admit.
func (b *Bucket) Take(now int64) bool {
	b.refill(now)
	if b.gap <= 0 {
		return true
	}
	if b.tokens > 0 {
		b.tokens--
		return true
	}
	return false
}

// NextAt returns the earliest virtual time a token will be available: now
// when one already is, otherwise the completion time of the in-progress
// refill — the wake-up time a Block-policy arrival waits for.
func (b *Bucket) NextAt(now int64) int64 {
	b.refill(now)
	if b.gap <= 0 || b.tokens > 0 {
		return now
	}
	return now + (b.gap - b.credit)
}
