// Package fixture is the unreachable fixture with every dead
// declaration deleted and every keep given a reason.
package fixture

import "fmt"

// req is reached from init and from the var initializer below.
type req struct{ v int }

// version is called only through decode's inline constraint.
func (r req) version() int { return r.v }

// String is called only through fmt.Stringer.
func (r req) String() string { return fmt.Sprint(r.v) }

func decode[T interface{ version() int }](t T) int { return t.version() }

// decode is reached only from this blank var's initializer.
var _ = decode(req{v: 1})

func init() { fmt.Println(req{v: helper()}) }

// helper is reached from init.
func helper() int { return 2 }

// oracle stands for a reference implementation a test compares
// against.
//
//qcloud:keep the fixture's stand-in for a test oracle
func oracle() int { return helper() }
