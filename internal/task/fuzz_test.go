package task

import "testing"

// FuzzDequeSequential drives a deque with an arbitrary op sequence on the
// owner side (push/pop) and checks it against a slice-backed reference.
// Steals are exercised interleaved with the owner ops from the same
// goroutine, where their LIFO/FIFO semantics are deterministic.
func FuzzDequeSequential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{2, 2, 1, 0, 0, 0, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewDeque[int](8)
		var ref []int // reference: ref[0] is the top (steal side)
		next := 0
		vals := make([]int, 0, len(ops))
		for _, op := range ops {
			switch op % 3 {
			case 0: // push bottom
				vals = append(vals, next)
				d.Push(&vals[len(vals)-1])
				ref = append(ref, next)
				next++
			case 1: // pop bottom
				got := d.Pop()
				if len(ref) == 0 {
					if got != nil {
						t.Fatalf("Pop on empty returned %d", *got)
					}
					continue
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if got == nil || *got != want {
					t.Fatalf("Pop = %v, want %d", got, want)
				}
			case 2: // steal top
				got := d.Steal()
				if len(ref) == 0 {
					if got != nil {
						t.Fatalf("Steal on empty returned %d", *got)
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				if got == nil || *got != want {
					t.Fatalf("Steal = %v, want %d", got, want)
				}
			}
			if d.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", d.Len(), len(ref))
			}
		}
	})
}

// FuzzInboxSequential checks FIFO behavior under arbitrary put/take
// interleavings from one goroutine, with taken elements put back through
// the same intrusive link.
func FuzzInboxSequential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1})
	f.Add([]byte{0, 1, 2, 0, 1, 1, 2, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := NewInbox[*item]()
		var ref []*item
		var taken []*item // out of the inbox, free to put back
		next := int64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0: // put a fresh element
				e := &item{v: next}
				next++
				q.Put(e)
				ref = append(ref, e)
			case 1:
				got := q.Take()
				if len(ref) == 0 {
					if got != nil {
						t.Fatalf("Take on empty returned %d", got.v)
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("Take = %v, want element %d", got, want.v)
				}
				taken = append(taken, got)
			case 2: // put the most recently taken element back
				if len(taken) == 0 {
					continue
				}
				e := taken[len(taken)-1]
				taken = taken[:len(taken)-1]
				q.Put(e)
				ref = append(ref, e)
			}
			if q.Len() != int64(len(ref)) {
				t.Fatalf("Len = %d, want %d", q.Len(), len(ref))
			}
		}
	})
}
