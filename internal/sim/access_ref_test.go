package sim

import (
	"charm/internal/cache"
	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/topology"
)

// The reference access path: Machine.Access as it was before the streamed
// loop kept anything local — every sampled line books its cache counters
// at once (Lookup + Insert, the definition FuzzCacheFill holds Fill to),
// updates the shared EWMA, and makes its own bandwidth charge at its own
// timestamp. It runs on a Machine of its own; TestAccessStreamMatchesReference
// and FuzzAccessStream hold Machine.Access to it after every call.

// refAccess is the oracle for Machine.Access.
func refAccess(m *Machine, core topology.CoreID, t int64, addr mem.Addr, size int64, write bool) int64 {
	if size <= 0 {
		return 0
	}
	first := uint64(addr) >> cache.LineShift
	last := (uint64(addr) + uint64(size) - 1) >> cache.LineShift
	var cost int64
	mask := uint64(m.sampleFactor - 1)
	acc := m.coreAccMilli(core)
	a := &m.avg[core].v
	streamRun := last-first >= 3
	for line := first; line <= last; line++ {
		if line&mask == 0 {
			c, ev := refAccessLine(m, core, t+cost, line, addr, write, streamRun && line != first)
			c = scaleAccess(c, acc)
			v := a.Load()
			a.Store(v + (c-v)/8)
			cost += c
			m.PMU.Add(int(core), ev, m.sampleFactor)
		} else {
			cost += a.Load()
		}
	}
	if write {
		m.PMU.Add(int(core), pmu.BytesWritten, size)
	} else {
		m.PMU.Add(int(core), pmu.BytesRead, size)
	}
	return cost
}

// refFill is cache.Fill by its definition, with the counters booked at once.
func refFill(c *cache.Cache, line uint64, now int64) (hit bool, evicted uint64, ok bool) {
	if c.Lookup(line, now) {
		return true, 0, false
	}
	evicted, ok = c.Insert(line, now)
	return false, evicted, ok
}

// refAccessLine is the oracle for one sampled line: accessLine with the
// line's bandwidth charge made in place.
func refAccessLine(m *Machine, core topology.CoreID, t int64, line uint64, addr mem.Addr, write bool, streaming bool) (int64, pmu.Event) {
	topo := m.Topo
	ch := m.chipletOf[core]
	l3 := m.l3[ch]
	l2 := m.l2[core]
	sc := &m.avg[core].dir
	xfer := int64(cache.LineSize) * m.sampleFactor

	pipelined := func(lat int64) int64 {
		if streaming {
			lat /= m.mlp
			if lat < 1 {
				lat = 1
			}
		}
		return lat
	}
	invalidationCost := func(copies int) int64 {
		return int64(copies) * topo.Cost.L3RemoteNearHit / 2
	}

	if l2 != nil {
		if hit, _, _ := refFill(l2, line, t); hit && m.l3Holds(ch, line, sc) {
			cost := pipelined(topo.Cost.L2Hit)
			if write {
				cost += invalidationCost(m.invalidateOthers(ch, line, sc))
			}
			return cost, pmu.FillL2
		}
	}

	hit, victim, evicted := refFill(l3, line, t)
	if hit {
		cost := pipelined(topo.Cost.L3LocalHit)
		if write {
			cost += invalidationCost(m.invalidateOthers(ch, line, sc))
		}
		return cost, pmu.FillL3Local
	}
	if evicted && m.dir != nil {
		m.dir.remove(victim, int(ch), &m.avg[core].vic)
	}

	holder, lat := m.closestHolder(ch, line, sc)
	var cost int64
	var ev pmu.Event
	if holder >= 0 {
		q := m.Fabric.ChargeTransfer(topology.ChipletID(holder), ch, t, xfer)
		cost = pipelined(lat) + q
		ev = m.remoteEv[int(ch)*len(m.l3)+holder]
		if write {
			cost += invalidationCost(m.invalidateOthers(ch, line, sc))
		}
	} else {
		local := m.nodeOf[core]
		node := m.Space.HomeOf(addr, local)
		qd := m.DRAM.Charge(node, t, xfer)
		qf := m.Fabric.ChargeMemory(ch, node, t, xfer)
		cost = pipelined(m.dramLat[int(node)*len(m.l3)+int(ch)]) + qd + qf
		if node == local {
			ev = pmu.FillDRAMLocal
		} else {
			ev = pmu.FillDRAMRemote
		}
	}
	if m.dir != nil {
		m.dir.add(line, int(ch), sc)
	}
	return cost, ev
}
