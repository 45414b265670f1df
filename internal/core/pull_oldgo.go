//go:build !go1.23

package core

var pull = charm_needs_Go_1_23_or_newer__its_coroutines_switch_with_iter_Pull
