package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/sp"
)

// GNL is this repository's native gate-netlist format. Unlike mapped BLIF
// it records, per instance, the chosen transistor ordering of both
// networks, so circuits round-trip through optimization losslessly:
//
//	# comment
//	circuit <name>
//	inputs <net> ...
//	outputs <net> ...
//	gate <instance> <cell> y=<net> <pin>=<net> ... [pd=<expr>] [pu=<expr>]
//	end
//
// pd=/pu= are sp-syntax expressions over the cell's pin names; omitting
// them selects the cell's canonical configuration. A given ordering reads
// as the library's interned configuration, so parallel-branch order is
// normalized to the library's and WriteGNL prints that.

// ReadGNL parses a GNL stream, resolving cells against lib.
func ReadGNL(r io.Reader, lib *library.Library) (*circuit.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	c := &circuit.Circuit{}
	lineNo := 0
	sawCircuit, sawEnd := false, false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if sawEnd {
			return nil, fmt.Errorf("gnl:%d: content after end", lineNo)
		}
		switch fields[0] {
		case "circuit":
			if sawCircuit {
				return nil, fmt.Errorf("gnl:%d: second circuit line", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("gnl:%d: circuit line needs exactly one name", lineNo)
			}
			sawCircuit = true
			c.Name = fields[1]
		case "inputs":
			c.Inputs = append(c.Inputs, fields[1:]...)
		case "outputs":
			c.Outputs = append(c.Outputs, fields[1:]...)
		case "gate":
			inst, err := parseGNLGate(fields[1:], lib, lineNo)
			if err != nil {
				return nil, err
			}
			c.Gates = append(c.Gates, inst)
		case "end":
			sawEnd = true
		default:
			return nil, fmt.Errorf("gnl:%d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gnl: %w", err)
	}
	if !sawCircuit {
		return nil, fmt.Errorf("gnl: missing circuit line")
	}
	if !sawEnd {
		return nil, fmt.Errorf("gnl: missing end line")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseGNLGate(fields []string, lib *library.Library, lineNo int) (*circuit.Instance, error) {
	if len(fields) < 3 {
		return nil, fmt.Errorf("gnl:%d: gate line needs instance, cell and bindings", lineNo)
	}
	instName, cellName := fields[0], fields[1]
	cell, ok := lib.Cell(cellName)
	if !ok {
		return nil, fmt.Errorf("gnl:%d: unknown cell %q", lineNo, cellName)
	}
	pins := map[string]string{}
	out := ""
	var pdSrc, puSrc string
	for _, f := range fields[2:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 || eq == len(f)-1 {
			return nil, fmt.Errorf("gnl:%d: malformed binding %q", lineNo, f)
		}
		key, val := f[:eq], f[eq+1:]
		switch key {
		case "y":
			out = val
		case "pd":
			pdSrc = val
		case "pu":
			puSrc = val
		default:
			if _, dup := pins[key]; dup {
				return nil, fmt.Errorf("gnl:%d: pin %s bound twice", lineNo, key)
			}
			pins[key] = val
		}
	}
	if out == "" {
		return nil, fmt.Errorf("gnl:%d: gate %s has no y= binding", lineNo, instName)
	}
	ordered := make([]string, len(cell.Inputs))
	for i, pin := range cell.Inputs {
		net, ok := pins[pin]
		if !ok {
			return nil, fmt.Errorf("gnl:%d: gate %s (%s) missing pin %s", lineNo, instName, cellName, pin)
		}
		ordered[i] = net
		delete(pins, pin)
	}
	if len(pins) != 0 {
		return nil, fmt.Errorf("gnl:%d: gate %s has extra bindings %v", lineNo, instName, pins)
	}
	cfg := cell.Proto
	if pdSrc != "" || puSrc != "" {
		pdExpr := cell.Proto.PD
		puExpr := cell.Proto.PU
		var err error
		if pdSrc != "" {
			if pdExpr, err = sp.Parse(pdSrc); err != nil {
				return nil, fmt.Errorf("gnl:%d: gate %s pd: %w", lineNo, instName, err)
			}
		}
		if puSrc != "" {
			if puExpr, err = sp.Parse(puSrc); err != nil {
				return nil, fmt.Errorf("gnl:%d: gate %s pu: %w", lineNo, instName, err)
			}
		}
		if cfg, err = cell.Proto.WithOrdering(pdExpr, puExpr); err != nil {
			return nil, fmt.Errorf("gnl:%d: gate %s: %w", lineNo, instName, err)
		}
	}
	return &circuit.Instance{Name: instName, Cell: cfg, Pins: ordered, Out: out}, nil
}

// WriteGNL renders the circuit with explicit configurations.
func WriteGNL(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", c.Name)
	fmt.Fprintf(bw, "inputs %s\n", strings.Join(c.Inputs, " "))
	fmt.Fprintf(bw, "outputs %s\n", strings.Join(c.Outputs, " "))
	gates := append([]*circuit.Instance(nil), c.Gates...)
	sort.Slice(gates, func(i, j int) bool { return gates[i].Name < gates[j].Name })
	for _, g := range gates {
		fmt.Fprintf(bw, "gate %s %s y=%s", g.Name, g.Cell.Name, g.Out)
		for i, pin := range g.Cell.Inputs {
			fmt.Fprintf(bw, " %s=%s", pin, g.Pins[i])
		}
		fmt.Fprintf(bw, " pd=%s pu=%s\n", g.Cell.PD, g.Cell.PU)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}
