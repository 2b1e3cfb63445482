package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse reads the QASM-like dialect emitted by Circuit.String and
// reconstructs the circuit, so traces of compiled programs can be
// stored and reloaded as text. The dialect is a strict subset of
// OpenQASM 2: one statement per line, a single qreg/creg pair, and the
// gate set of this package.
func Parse(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	c := &Circuit{Name: "parsed", NQubits: -1, NClbits: -1}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || strings.HasPrefix(text, "OPENQASM") || strings.HasPrefix(text, "include"):
			continue
		case strings.HasPrefix(text, "//"):
			// The header comment carries the circuit name.
			fields := strings.Fields(strings.TrimPrefix(text, "//"))
			if len(fields) > 0 && c.Name == "parsed" {
				c.Name = strings.TrimSuffix(fields[0], ":")
			}
			continue
		}
		stmt := strings.TrimSuffix(text, ";")
		if stmt == text {
			return nil, fmt.Errorf("circuit: line %d: missing semicolon", line)
		}
		if err := parseStatement(c, stmt); err != nil {
			return nil, fmt.Errorf("circuit: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c.NQubits < 0 {
		return nil, fmt.Errorf("circuit: no qreg declaration")
	}
	if c.NClbits < 0 {
		c.NClbits = c.NQubits
	}
	return c, nil
}

// ParseString parses the textual circuit form from a string.
//
//qcloud:keep no binary reads QASM; the reader goes with parse_test.go and FuzzParse in the next sweep (ROADMAP "Finish the sweep")
func ParseString(s string) (*Circuit, error) { return Parse(strings.NewReader(s)) }

var opByName = map[string]Op{
	"id": OpI, "x": OpX, "y": OpY, "z": OpZ, "h": OpH,
	"s": OpS, "sdg": OpSdg, "t": OpT, "tdg": OpTdg, "sx": OpSX,
	"rx": OpRX, "ry": OpRY, "rz": OpRZ, "u": OpU,
	"cx": OpCX, "cz": OpCZ, "cp": OpCPhase, "swap": OpSWAP, "ccx": OpCCX,
	"measure": OpMeasure, "reset": OpReset, "barrier": OpBarrier,
}

func parseStatement(c *Circuit, stmt string) error {
	switch {
	case strings.HasPrefix(stmt, "qreg"):
		n, err := parseRegDecl(stmt, "qreg", "q")
		if err != nil {
			return err
		}
		c.NQubits = n
		return nil
	case strings.HasPrefix(stmt, "creg"):
		n, err := parseRegDecl(stmt, "creg", "c")
		if err != nil {
			return err
		}
		c.NClbits = n
		return nil
	}
	if c.NQubits < 0 {
		return fmt.Errorf("gate before qreg declaration")
	}
	// Mnemonic, optional "(params)", operands.
	head := stmt
	rest := ""
	if i := strings.IndexAny(stmt, " ("); i >= 0 {
		head, rest = stmt[:i], strings.TrimSpace(stmt[i:])
	}
	op, ok := opByName[head]
	if !ok {
		return fmt.Errorf("unknown gate %q", head)
	}
	g := Gate{Op: op, Clbit: -1}
	if strings.HasPrefix(rest, "(") {
		close := strings.Index(rest, ")")
		if close < 0 {
			return fmt.Errorf("unclosed parameter list")
		}
		for _, p := range strings.Split(rest[1:close], ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("bad parameter %q: %w", p, err)
			}
			g.Params = append(g.Params, v)
		}
		rest = strings.TrimSpace(rest[close+1:])
	}
	// Measurement target: "q[i] -> c[j]".
	if op == OpMeasure {
		parts := strings.Split(rest, "->")
		if len(parts) != 2 {
			return fmt.Errorf("measure needs 'q[i] -> c[j]'")
		}
		q, err := parseIndex(strings.TrimSpace(parts[0]), "q")
		if err != nil {
			return err
		}
		cl, err := parseIndex(strings.TrimSpace(parts[1]), "c")
		if err != nil {
			return err
		}
		g.Qubits = []int{q}
		g.Clbit = cl
		return c.Append(g)
	}
	for _, operand := range strings.Split(rest, ",") {
		q, err := parseIndex(strings.TrimSpace(operand), "q")
		if err != nil {
			return err
		}
		g.Qubits = append(g.Qubits, q)
	}
	return c.Append(g)
}

// parseRegDecl parses "qreg q[n]" / "creg c[n]".
func parseRegDecl(stmt, keyword, reg string) (int, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(stmt, keyword))
	return parseIndex(rest, reg)
}

// parseIndex parses "q[i]" (or "c[i]") and returns i.
func parseIndex(s, reg string) (int, error) {
	if !strings.HasPrefix(s, reg+"[") || !strings.HasSuffix(s, "]") {
		return 0, fmt.Errorf("expected %s[i], got %q", reg, s)
	}
	v, err := strconv.Atoi(s[len(reg)+1 : len(s)-1])
	if err != nil {
		return 0, fmt.Errorf("bad index in %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative index in %q", s)
	}
	return v, nil
}
