// Package fixture is the deliberately-broken unreachable fixture. The
// test loads it as a whole program of its own, so its roots are its
// var initializers and init: what they do not reach is dead, except
// what a reasoned //qcloud:keep holds.
package fixture

import "fmt"

// req is reached from init and from the var initializer below.
type req struct{ v int }

// version is called only through decode's inline constraint, the
// shape of the dispatcher's versioned request decoder.
func (r req) version() int { return r.v }

// String is called only through fmt.Stringer.
func (r req) String() string { return fmt.Sprint(r.v) }

func decode[T interface{ version() int }](t T) int { return t.version() }

// decode is reached only from this blank var's initializer.
var _ = decode(req{v: 1})

func init() { fmt.Println(req{}) }

// Exported is exported, which does not make it reached: nobody calls it.
func Exported() int { return helper() + 1 } // want `Exported is reached by no main`

// helper is reached only from Exported.
func helper() int { return 2 } // want `helper is reached by no main`

// oracle stands for a reference implementation a test compares
// against.
//
//qcloud:keep the fixture's stand-in for a test oracle
func oracle() int { return 3 }

// unexplained carries a keep with no reason.
//
//qcloud:keep
func unexplained() {} // want `unexplained: //qcloud:keep needs a reason`
