//go:build go1.23

package core

import "iter"

// pull is iter.Pull, the coroutine switch under worker loops (lockstep.go)
// and task stacks (coroutine.go). It needs language version 1.23 and go.mod
// says 1.22 (see ROADMAP): the tag raises this file, the only one to name iter.
var pull = iter.Pull[int]
