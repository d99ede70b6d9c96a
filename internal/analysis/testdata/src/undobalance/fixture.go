// Fixture for the undobalance analyzer: guarded probe pushes must be popped
// on every path; Commit is the only unpaired form, and nested-loop control
// flow is exempt.
package undobalance

import "regsat/internal/rs"

func work() {}

// Balanced probe/rollback: no diagnostics.
func good(ik *rs.Incremental, cands []int) {
	for _, c := range cands {
		if !ik.Push(0, c) {
			continue
		}
		work()
		ik.Pop()
	}
}

// Commits persist: no pairing required, guarded or not.
func commit(ik *rs.Incremental) {
	ik.Commit(0, 1)
	if !ik.Commit(1, 2) {
		return
	}
	work()
}

// A bare Push leaves a frame no Pop rolls back.
func unguardedPush(ik *rs.Incremental) {
	ik.Push(0, 1) // want "Push outside the guarded probe form"
	work()
}

// Keeping the result does not make it a probe either.
func assignedPush(ik *rs.Incremental, cands []int) {
	for _, c := range cands {
		ok := ik.Push(0, c) // want "Push outside the guarded probe form"
		if ok {
			work()
		}
	}
}

// The positive guard pushes on the success branch with no rollback region.
func positiveGuard(ik *rs.Incremental) {
	if ik.Push(0, 1) { // want "Push outside the guarded probe form"
		work()
	}
}

func missingPop(ik *rs.Incremental, cands []int) {
	for _, c := range cands {
		if !ik.Push(0, c) { // want "probe Push has no matching Pop"
			continue
		}
		work()
	}
}

func escapes(ik *rs.Incremental, cands []int) {
	for _, c := range cands {
		if !ik.Push(0, c) {
			continue
		}
		if c > 3 {
			return // want "control leaves the region between Push and its Pop"
		}
		ik.Pop()
	}
}

func fallsThrough(ik *rs.Incremental) {
	n := 0
	if !ik.Push(0, 1) { // want "guard branch of failed Push falls through"
		n++
	}
	ik.Pop()
	_ = n
}

func orphanPop(ik *rs.Incremental) {
	work()
	ik.Pop() // want "Pop without a preceding probe Push"
}

// break/continue belonging to a nested loop inside the region is fine.
func nested(ik *rs.Incremental, cands []int) {
	for _, c := range cands {
		if !ik.Push(0, c) {
			continue
		}
		for j := 0; j < c; j++ {
			if j == 2 {
				break
			}
			work()
		}
		ik.Pop()
	}
}
