// Package reachfixture is the reach guard's regression fixture
// (TestReachGuardResolvesByType). T.Reset is called only by tests, beside a
// same-named U.Reset that non-test code calls; S.String is called by no
// code here, only by fmt through fmt.Stringer. A resolver that matches uses
// by name credits T.Reset; one that resolves them by type flags it, and
// only it.
package reachfixture

import "fmt"

// T's Reset is reached only by fixture_test.go.
type T struct{ n int }

func (t *T) Reset() { t.n = 0 }

// U's Reset is reached by describe.
type U struct{ n int }

func (u *U) Reset() { u.n = 0 }

// S's String is reached through fmt.Stringer.
type S struct{}

func (S) String() string { return "S" }

func describe(u *U) string {
	u.Reset()
	return fmt.Sprint(S{}, u.n)
}
