package core

// slab hands out zeroed values of T carved from chunks it allocates in
// geometrically growing sizes: each chunk as large as all before it
// together (8, 8, 16, 32, ...), at most 256 values. The job service carves
// its Jobs and their stage groups from slabs, so a job costs a fraction of
// an allocation instead of one per object, while a service that sees a
// few dozen jobs reserves at most twice what it uses. A chunk stays
// reachable while any value carved from it is. Not safe for concurrent
// use: the service draws under its mutex.
type slab[T any] struct {
	free []T
	made int // values in the chunks made so far
}

const (
	slabFirst = 8
	slabMax   = 256
)

// get returns a pointer to a fresh zero T.
func (s *slab[T]) get() *T {
	if len(s.free) == 0 {
		s.grow()
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// grow makes the next chunk.
func (s *slab[T]) grow() {
	n := min(max(s.made, slabFirst), slabMax)
	s.free = make([]T, n)
	s.made += n
}
