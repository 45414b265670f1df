package oltp

import (
	"sync/atomic"
	"testing"

	"charm"
)

func mvccRT(t *testing.T, workers int) *charm.Runtime {
	t.Helper()
	rt, err := charm.Init(charm.Config{
		Workers:        workers,
		Topology:       charm.SmallTopology(),
		SchedulerTimer: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Finalize)
	return rt
}

func TestMVCCReadYourWrites(t *testing.T) {
	rt := mvccRT(t, 1)
	s := NewMVCC(rt, 16)
	rt.Run(func(ctx *charm.Ctx) {
		tx := s.Begin()
		tx.Write(3, 42)
		if got := tx.Read(ctx, 3); got != 42 {
			t.Errorf("read-your-writes = %d", got)
		}
		if got := tx.Read(ctx, 4); got != 0 {
			t.Errorf("unwritten key = %d", got)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Errorf("commit: %v", err)
		}
		tx2 := s.Begin()
		if got := tx2.Read(ctx, 3); got != 42 {
			t.Errorf("committed value = %d", got)
		}
	})
}

func TestMVCCSnapshotStability(t *testing.T) {
	rt := mvccRT(t, 1)
	s := NewMVCC(rt, 4)
	rt.Run(func(ctx *charm.Ctx) {
		old := s.Begin() // snapshot before any commit
		w := s.Begin()
		w.Write(0, 7)
		if err := w.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		// The old snapshot must not see the new value.
		if got := old.Read(ctx, 0); got != 0 {
			t.Errorf("snapshot leaked future value %d", got)
		}
		fresh := s.Begin()
		if got := fresh.Read(ctx, 0); got != 7 {
			t.Errorf("fresh snapshot = %d, want 7", got)
		}
	})
}

func TestMVCCFirstCommitterWins(t *testing.T) {
	rt := mvccRT(t, 1)
	s := NewMVCC(rt, 4)
	rt.Run(func(ctx *charm.Ctx) {
		t1 := s.Begin()
		t2 := s.Begin()
		t1.Write(1, 10)
		t2.Write(1, 20)
		if err := t1.Commit(ctx); err != nil {
			t.Fatalf("first committer: %v", err)
		}
		if err := t2.Commit(ctx); err != ErrConflict {
			t.Fatalf("second committer: %v, want ErrConflict", err)
		}
		tx := s.Begin()
		if got := tx.Read(ctx, 1); got != 10 {
			t.Errorf("value = %d, want first committer's 10", got)
		}
	})
}

func TestMVCCAbortInstallsNothing(t *testing.T) {
	rt := mvccRT(t, 1)
	s := NewMVCC(rt, 8)
	rt.Run(func(ctx *charm.Ctx) {
		t1 := s.Begin()
		t2 := s.Begin()
		t1.Write(2, 1)
		if err := t1.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		// t2 conflicts on key 2 but also writes key 5: neither may land.
		t2.Write(5, 99)
		t2.Write(2, 2)
		if err := t2.Commit(ctx); err != ErrConflict {
			t.Fatalf("want conflict, got %v", err)
		}
		tx := s.Begin()
		if got := tx.Read(ctx, 5); got != 0 {
			t.Errorf("aborted write leaked: key 5 = %d", got)
		}
	})
}

// TestMVCCNoLostUpdates is the classic SI counter test: concurrent
// increment transactions retry on conflict; the final value must equal the
// number of successful commits exactly.
func TestMVCCNoLostUpdates(t *testing.T) {
	rt := mvccRT(t, 8)
	s := NewMVCC(rt, 4)
	var succeeded atomic.Int64
	const perWorker = 200
	rt.AllDo(func(ctx *charm.Ctx) {
		for i := 0; i < perWorker; i++ {
			for {
				tx := s.Begin()
				v := tx.Read(ctx, 0)
				tx.Write(0, v+1)
				if tx.Commit(ctx) == nil {
					succeeded.Add(1)
					break
				}
				ctx.Yield()
			}
		}
	})
	rt.Run(func(ctx *charm.Ctx) {
		tx := s.Begin()
		got := tx.Read(ctx, 0)
		if int64(got) != succeeded.Load() {
			t.Errorf("counter = %d, want %d successful increments", got, succeeded.Load())
		}
	})
	if succeeded.Load() != 8*perWorker {
		t.Errorf("succeeded = %d, want %d (every increment retries to success)",
			succeeded.Load(), 8*perWorker)
	}
	commits, aborts := s.Stats()
	if commits < 8*perWorker {
		t.Errorf("commits = %d", commits)
	}
	if aborts == 0 {
		t.Log("no aborts observed (low contention run)")
	}
}

func TestMVCCMultiKeyAtomicity(t *testing.T) {
	// Transfers between two accounts: the sum is invariant under any
	// interleaving because commits are all-or-nothing.
	rt := mvccRT(t, 4)
	s := NewMVCC(rt, 2)
	rt.Run(func(ctx *charm.Ctx) {
		init := s.Begin()
		init.Write(0, 1000)
		init.Write(1, 1000)
		if err := init.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	})
	rt.AllDo(func(ctx *charm.Ctx) {
		for i := 0; i < 100; i++ {
			for {
				tx := s.Begin()
				a, b := tx.Read(ctx, 0), tx.Read(ctx, 1)
				if a == 0 {
					break
				}
				tx.Write(0, a-1)
				tx.Write(1, b+1)
				if tx.Commit(ctx) == nil {
					break
				}
				ctx.Yield()
			}
		}
	})
	rt.Run(func(ctx *charm.Ctx) {
		tx := s.Begin()
		if sum := tx.Read(ctx, 0) + tx.Read(ctx, 1); sum != 2000 {
			t.Errorf("sum = %d, want 2000", sum)
		}
	})
}

func TestMVCCTxnReusePanics(t *testing.T) {
	rt := mvccRT(t, 1)
	s := NewMVCC(rt, 1)
	rt.Run(func(ctx *charm.Ctx) {
		tx := s.Begin()
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Error("reused txn must panic")
			}
		}()
		tx.Commit(ctx)
	})
}

func TestMVCCValidation(t *testing.T) {
	rt := mvccRT(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("zero-size store must panic")
		}
	}()
	NewMVCC(rt, 0)
}
