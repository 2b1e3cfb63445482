package lint

import "go/ast"

// EventOrder flags every go statement in the session packages:
// internal/cloud, internal/journal and internal/tenant, test files
// included. Each machine's lifecycle (its queue, counts, journal
// stream and records) is written by one goroutine at a time, and the
// fan-out over machines is internal/par's ForEach, which joins before
// it returns. A goroutine started anywhere else could outlive the call
// that started it or interleave with a machine's own writes, and the
// per-machine order, and with it trace bit-identity, would depend on
// the scheduler. These packages have no go statement; this keeps it so.
var EventOrder = &Analyzer{
	Name:         "eventorder",
	Doc:          "flag go statements in internal/cloud, internal/journal and internal/tenant, whose fan-out is internal/par",
	Scope:        []string{"qcloud/internal/cloud", "qcloud/internal/journal", "qcloud/internal/tenant"},
	IncludeTests: true,
	Run:          runEventOrder,
}

func runEventOrder(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement in a session package; fan out through internal/par so each machine keeps one event order")
			}
			return true
		})
	}
	return nil
}
