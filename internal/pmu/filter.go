package pmu

// Event filter masks, modeling the OFFCORE_RESPONSE-style configuration
// §4.5 describes for Intel systems: a mask selects which fill sources a
// derived counter aggregates (LLC hits, DRAM responses from local or remote
// sources), letting the runtime distinguish on-chip, on-die and remote
// traffic from the same underlying counters.

// SourceMask selects a set of fill sources.
type SourceMask uint8

// Fill-source mask bits.
const (
	SrcL2 SourceMask = 1 << iota
	SrcL3Local
	SrcL3RemoteNear
	SrcL3RemoteFar
	SrcL3RemoteSocket
	SrcDRAMLocal
	SrcDRAMRemote
)

// Predefined masks matching the paper's counter configurations.
const (
	// MaskLLCHit selects fills served by any L3 (the LLC-hit filter).
	MaskLLCHit = SrcL3Local | SrcL3RemoteNear | SrcL3RemoteFar | SrcL3RemoteSocket
	// MaskLLCHitLocal selects fills served by the local chiplet's L3.
	MaskLLCHitLocal = SrcL3Local
	// MaskLLCHitRemote selects cache-to-cache fills from other chiplets.
	MaskLLCHitRemote = SrcL3RemoteNear | SrcL3RemoteFar | SrcL3RemoteSocket
	// MaskDRAM selects fills from main memory, local and remote.
	MaskDRAM = SrcDRAMLocal | SrcDRAMRemote
	// MaskDRAMLocal / MaskDRAMRemote split DRAM responses by home node.
	MaskDRAMLocal  = SrcDRAMLocal
	MaskDRAMRemote = SrcDRAMRemote
	// MaskFromSystem is ANY_DATA_CACHE_FILLS_FROM_SYSTEM: everything
	// served from beyond the local chiplet (Alg. 1's event counter).
	MaskFromSystem = MaskLLCHitRemote | MaskDRAM
	// MaskOnDie selects inter-CCX fills within the socket (the paper's
	// "on-die" class).
	MaskOnDie = SrcL3RemoteNear | SrcL3RemoteFar
)

// maskEvents maps mask bits to their counter events.
var maskEvents = [...]struct {
	bit SourceMask
	ev  Event
}{
	{SrcL2, FillL2},
	{SrcL3Local, FillL3Local},
	{SrcL3RemoteNear, FillL3RemoteNear},
	{SrcL3RemoteFar, FillL3RemoteFar},
	{SrcL3RemoteSocket, FillL3RemoteSocket},
	{SrcDRAMLocal, FillDRAMLocal},
	{SrcDRAMRemote, FillDRAMRemote},
}

// Filtered returns the sum of core's fill counters selected by mask.
func (p *PMU) Filtered(core int, mask SourceMask) int64 {
	var s int64
	c := &p.cores[core]
	for _, me := range maskEvents {
		if mask&me.bit != 0 {
			s += c.v[me.ev].Load()
		}
	}
	return s
}
