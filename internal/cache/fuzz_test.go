package cache

import "testing"

// FuzzCacheFill holds Fill to its definition — Lookup and, on a miss,
// Insert — on small geometries where sets fill and LRU ties are common: a
// cache driven through Fill and a twin driven through Lookup+Insert see
// the same sequence of lines, arbitrary (also equal and decreasing) stamps
// and invalidations, and must agree after every step on the returns and on
// every way's tag and stamp. Fill's statistics sit in a Tally that is
// booked only every book-th op (book is fuzzer-chosen, 1 = per Fill, the
// way a single-line access books): between bookings the cache's counters
// plus the outstanding tally, and after one the counters alone, must equal
// the twin's hit/miss/eviction counters.
func FuzzCacheFill(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 6, 0, 1, 7, 3, 1, 0, 0, 3, 8}, uint8(0))
	f.Add([]byte{0, 0, 9, 1, 4, 9, 2, 8, 9, 0, 12, 1, 3, 4, 0, 1, 16, 200}, uint8(0x15))
	f.Add([]byte{2, 31, 255, 2, 30, 0, 2, 29, 128, 3, 31, 0, 2, 28, 128}, uint8(0x2b))
	// Tallies left outstanding over four and ten fills, evictions among them.
	f.Add([]byte{0, 1, 5, 0, 2, 6, 0, 3, 7, 0, 1, 8, 0, 4, 9, 3, 2, 0, 0, 5, 9, 0, 2, 9, 0, 6, 9}, uint8(0x40))
	f.Add([]byte{0, 0, 9, 1, 4, 9, 2, 8, 9, 0, 12, 1, 3, 4, 0, 1, 16, 200, 0, 20, 3, 0, 24, 4, 0, 28, 5, 0, 0, 6, 0, 4, 7}, uint8(0xd5))
	f.Fuzz(func(t *testing.T, ops []byte, geom uint8) {
		ways := 1 + int(geom%4)
		sets := 1 << ((geom >> 2) % 3)
		shift := uint((geom >> 4) % 3)
		capacity := int64(sets*ways) << (LineShift + shift)
		fill, ref := New(capacity, ways, shift), New(capacity, ways, shift)
		book := 1 + int(geom>>6)*3 // 1, 4, 7 or 10 ops per booking
		var tally Tally
		if fill.numSets != sets {
			t.Fatalf("geometry: %d sets, want %d", fill.numSets, sets)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			line := uint64(ops[i+1]%32) << shift
			now := int64(ops[i+2]) - 64
			if ops[i]%4 == 3 {
				if got, want := fill.Invalidate(line), ref.Invalidate(line); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %v, twin %v", i/3, line, got, want)
				}
			} else {
				hit, ev, ok := fill.Fill(line, now, &tally)
				wantHit := ref.Lookup(line, now)
				var wantEv uint64
				var wantOK bool
				if !wantHit {
					wantEv, wantOK = ref.Insert(line, now)
				}
				if hit != wantHit || ev != wantEv || ok != wantOK {
					t.Fatalf("op %d: Fill(%d, %d) = (%v, %d, %v), Lookup+Insert = (%v, %d, %v)",
						i/3, line, now, hit, ev, ok, wantHit, wantEv, wantOK)
				}
				if !fill.Contains(line) {
					t.Fatalf("op %d: line %d absent after Fill", i/3, line)
				}
			}
			for w := range fill.sets {
				ft, rt := fill.sets[w].tag.Load(), ref.sets[w].tag.Load()
				fu, ru := fill.sets[w].use.Load(), ref.sets[w].use.Load()
				if ft != rt || fu != ru {
					t.Fatalf("op %d: way %d holds (tag %d, use %d), twin (tag %d, use %d)", i/3, w, ft, fu, rt, ru)
				}
			}
			if (i/3+1)%book == 0 {
				fill.Book(&tally)
				if tally != (Tally{}) {
					t.Fatalf("op %d: Book left %+v", i/3, tally)
				}
			}
			fh, fm := fill.Stats()
			fh, fm, fe := fh+tally.Hits, fm+tally.Misses, fill.Evictions()+tally.Evicts
			rh, rm := ref.Stats()
			if fh != rh || fm != rm || fe != ref.Evictions() {
				t.Fatalf("op %d: stats hits/misses/evictions %d/%d/%d, twin %d/%d/%d",
					i/3, fh, fm, fe, rh, rm, ref.Evictions())
			}
		}
	})
}
