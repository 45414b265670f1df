// Package tenant implements the multi-tenant isolation plane of the
// open-loop job service: per-tenant admission specs (weights, chiplet
// quotas, token-bucket rate limits), the deficit-round-robin
// mux that shares dispatch slots fairly across tenants, and the elastic
// chiplet-lease table the placement plane arbitrates.
//
// Like internal/admit, everything here runs in virtual time and is a pure
// function of its inputs: no wall clocks, no randomness. The job service
// drives all state machines under its own lock, which deterministic runs
// serialize by the turn baton — so two identical runs make byte-identical
// arbitration decisions.
package tenant

import (
	"fmt"
	"strconv"
	"strings"

	"charm/internal/admit"
)

// Spec declares one tenant's admission contract.
type Spec struct {
	// Name labels the tenant in metrics, spans, and reports.
	Name string
	// Weight is the tenant's deficit-round-robin quantum: dispatch slots
	// granted per scheduling round while the tenant is backlogged.
	Weight int64
	// Quota is the tenant's guaranteed chiplet-lease count. Tenants may
	// elastically grow past it into idle chiplets, but only the quota is
	// defended when other tenants demand their share back.
	Quota int
	// GapNS is the token-bucket refill gap in virtual ns per admitted job
	// (the inverse of the tenant's contracted arrival rate). 0 disables
	// rate limiting for the tenant.
	GapNS int64
	// Burst is the token-bucket depth: how many jobs may arrive back to
	// back before the rate limit engages. 0 selects 1 when GapNS is set.
	Burst int64
	// Policy is the tenant's backpressure policy, applied both to its
	// admission queue and to token-bucket overflow: Block holds the
	// arrival upstream, Reject refuses it, Shed drops deadline-hopeless
	// work first.
	Policy admit.Policy
	// QueueCap bounds the tenant's admission queue (0 = service default).
	QueueCap int
}

// specLimits bound the grammar so a fuzzer (or a typo) cannot demand an
// absurd allocation.
const (
	maxWeight   = 1 << 20
	maxQuota    = 1 << 12
	maxQueueCap = 1 << 20
)

// Validate rejects malformed specs with a descriptive error.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("tenant: empty name")
	}
	for _, r := range s.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("tenant: name %q: invalid character %q", s.Name, r)
		}
	}
	if s.Weight < 1 || s.Weight > maxWeight {
		return fmt.Errorf("tenant %s: weight %d out of range [1, %d]", s.Name, s.Weight, maxWeight)
	}
	if s.Quota < 0 || s.Quota > maxQuota {
		return fmt.Errorf("tenant %s: quota %d out of range [0, %d]", s.Name, s.Quota, maxQuota)
	}
	if s.GapNS < 0 {
		return fmt.Errorf("tenant %s: negative gap %d", s.Name, s.GapNS)
	}
	if s.Burst < 0 {
		return fmt.Errorf("tenant %s: negative burst %d", s.Name, s.Burst)
	}
	if s.GapNS == 0 && s.Burst > 0 {
		return fmt.Errorf("tenant %s: burst %d without a gap (rate limit disabled)", s.Name, s.Burst)
	}
	if s.QueueCap < 0 || s.QueueCap > maxQueueCap {
		return fmt.Errorf("tenant %s: queue %d out of range [0, %d]", s.Name, s.QueueCap, maxQueueCap)
	}
	if s.Policy > admit.Shed {
		return fmt.Errorf("tenant %s: unknown policy %d", s.Name, s.Policy)
	}
	return nil
}

// ParseSpec parses the tenant-spec grammar:
//
//	[tenant:]name[,weight[,quota]][,key=value...]
//
// The name comes first; the next up-to-two bare integers are positional
// weight and quota; keyed fields are weight, quota, gap (a virtual
// duration: "250us", "1ms", or bare ns), burst, policy (block/reject/
// shed), and queue. Omitted fields default to weight 1, quota 0, no rate
// limit, policy shed.
//
//	tenant:batch,weight=1,quota=1,gap=50us,burst=8,policy=shed
//	interactive,4,2
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimPrefix(s, "tenant:")
	parts := strings.Split(s, ",")
	spec := Spec{Weight: 1, Policy: admit.Shed}
	spec.Name = strings.TrimSpace(parts[0])
	if spec.Name == "" || strings.ContainsAny(spec.Name, "=:") {
		return Spec{}, fmt.Errorf("tenant: spec %q: first field must be the tenant name", s)
	}
	pos := 0 // positional cursor: 0 = weight, 1 = quota
	for _, p := range parts[1:] {
		p = strings.TrimSpace(p)
		if p == "" {
			return Spec{}, fmt.Errorf("tenant %s: empty field", spec.Name)
		}
		k, v, keyed := strings.Cut(p, "=")
		if !keyed {
			n, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("tenant %s: bad positional field %q: %v", spec.Name, p, err)
			}
			switch pos {
			case 0:
				spec.Weight = n
			case 1:
				spec.Quota = int(n)
			default:
				return Spec{}, fmt.Errorf("tenant %s: too many positional fields at %q", spec.Name, p)
			}
			pos++
			continue
		}
		pos = 2 // keyed fields end the positional prefix
		var err error
		switch k {
		case "weight":
			spec.Weight, err = strconv.ParseInt(v, 10, 64)
		case "quota":
			spec.Quota, err = atoi(v)
		case "gap":
			spec.GapNS, err = parseDur(v)
		case "burst":
			spec.Burst, err = strconv.ParseInt(v, 10, 64)
		case "queue":
			spec.QueueCap, err = atoi(v)
		case "policy":
			spec.Policy, err = admit.ParsePolicy(v)
		default:
			return Spec{}, fmt.Errorf("tenant %s: unknown key %q", spec.Name, k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("tenant %s: %s=%q: %v", spec.Name, k, v, err)
		}
	}
	if spec.GapNS > 0 && spec.Burst == 0 {
		spec.Burst = 1
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// String renders the spec in canonical grammar form: ParseSpec(s.String())
// reproduces s exactly (the fuzz target's round-trip property).
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant:%s,weight=%d,quota=%d", s.Name, s.Weight, s.Quota)
	if s.GapNS > 0 {
		fmt.Fprintf(&b, ",gap=%d,burst=%d", s.GapNS, s.Burst)
	}
	fmt.Fprintf(&b, ",policy=%s", s.Policy)
	if s.QueueCap > 0 {
		fmt.Fprintf(&b, ",queue=%d", s.QueueCap)
	}
	return b.String()
}

func atoi(v string) (int, error) {
	n, err := strconv.ParseInt(v, 10, 32)
	return int(n), err
}

// parseDur parses a virtual duration: bare integers are ns; the ns, us,
// µs, ms, and s suffixes scale accordingly. Virtual time is integer ns, so
// fractional values are rejected.
func parseDur(v string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(v, "ns"):
		v = strings.TrimSuffix(v, "ns")
	case strings.HasSuffix(v, "µs"):
		v, mult = strings.TrimSuffix(v, "µs"), 1_000
	case strings.HasSuffix(v, "us"):
		v, mult = strings.TrimSuffix(v, "us"), 1_000
	case strings.HasSuffix(v, "ms"):
		v, mult = strings.TrimSuffix(v, "ms"), 1_000_000
	case strings.HasSuffix(v, "s"):
		v, mult = strings.TrimSuffix(v, "s"), 1_000_000_000
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 || (mult > 1 && n > (1<<62)/mult) {
		return 0, fmt.Errorf("duration %q out of range", v)
	}
	return n * mult, nil
}
