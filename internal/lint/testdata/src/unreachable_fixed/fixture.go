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

func init() {
	o := estimate(Options{Set: 1, Filled: 2}.withDefaults())
	bind(&o.Bound)
	o.Deep++
	o = Pair{1, 2}.tune(o)
	fmt.Println(req{v: helper()}, o, Pair{1, 2})
}

// helper is reached from init.
func helper() int { return 2 }

// oracle stands for a reference implementation a test compares
// against.
//
//qcloud:keep the fixture's stand-in for a test oracle
func oracle() int { return helper() }

// Options is reached from init, so each exported field needs a writer.
type Options struct {
	// Set is written by init's keyed literal.
	Set int
	// Filled is written by init; its default fill stays.
	Filled int
	// Estimated is filled by a plain function, the shape of a package
	// that builds the options it passes on.
	Estimated int
	// Tuned is filled by a method of another type.
	Tuned int
	// Bound is written through &o.Bound, the shape of flag.IntVar.
	Bound int
	// Decoded is written only by encoding/json.
	//
	//qcloud:keep the fixture's stand-in for a field a decoder writes
	Decoded int
	Inner
}

// Inner is embedded in Options; a write through Options reaches it.
type Inner struct{ Deep int }

// Pair is written only by an unkeyed literal.
type Pair struct{ A, B int }

func (o Options) withDefaults() Options {
	if o.Filled <= 0 {
		o.Filled = 4
	}
	return o
}

func estimate(o Options) Options {
	if o.Estimated == 0 {
		o.Estimated = 30
	}
	return o
}

func (p Pair) tune(o Options) Options {
	if o.Tuned == 0 {
		o.Tuned = p.A
	}
	return o
}

func bind(p *int) { *p = 5 }
