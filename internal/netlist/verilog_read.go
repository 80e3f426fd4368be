package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"bespoke/internal/logic"
)

// ReadVerilog parses the structural subset WriteVerilog emits (BESPOKE_*
// primitive instances, constant assigns, output assigns) back into a
// netlist, so tailored designs can round-trip through the interchange
// format. It is not a general Verilog parser. Every gate is named after
// the net it drives, so a finding on the parsed netlist can be found in
// the file. A net, input port or constant defined twice is an error:
// keeping either driver would hide the conflict from the multi-driven
// analyzer.
func ReadVerilog(r io.Reader) (*Netlist, error) {
	n := New()
	names := map[string]GateID{} // verilog net name -> gate
	type fixup struct {
		gate GateID
		pin  int
		net  string
	}
	var fixups []fixup
	var outputs []string
	outputAssign := map[string]string{}

	lineNo := 0
	define := func(name string, g Gate) (GateID, error) {
		if _, dup := names[name]; dup {
			return None, fmt.Errorf("verilog line %d: net %q defined twice", lineNo, name)
		}
		g.Name = name
		id := n.Add(g)
		names[name] = id
		return id, nil
	}
	ref := func(gate GateID, pin int, net string) {
		if id, ok := names[net]; ok {
			n.Gates[gate].In[pin] = id
			return
		}
		fixups = append(fixups, fixup{gate, pin, net})
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		switch {
		case line == "" || strings.HasPrefix(line, "module") ||
			strings.HasPrefix(line, "endmodule") || strings.HasPrefix(line, "wire"):
			continue

		case strings.HasPrefix(line, "input"):
			for _, p := range splitList(strings.TrimSuffix(strings.TrimPrefix(line, "input"), ";")) {
				if p == "clk" || p == "rst" {
					continue
				}
				if _, err := define(p, Gate{Kind: Input}); err != nil {
					return nil, err
				}
			}

		case strings.HasPrefix(line, "output"):
			for _, p := range splitList(strings.TrimSuffix(strings.TrimPrefix(line, "output"), ";")) {
				outputs = append(outputs, p)
			}

		case strings.HasPrefix(line, "assign"):
			// assign lhs = rhs;  rhs is 1'b0, 1'b1, or a net.
			body := strings.TrimSuffix(strings.TrimPrefix(line, "assign"), ";")
			parts := strings.SplitN(body, "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("verilog line %d: bad assign %q", lineNo, line)
			}
			lhs := strings.TrimSpace(parts[0])
			rhs := strings.TrimSpace(parts[1])
			if lhs == "" || rhs == "" {
				return nil, fmt.Errorf("verilog line %d: bad assign %q", lineNo, line)
			}
			var err error
			switch rhs {
			case "1'b0":
				_, err = define(lhs, Gate{Kind: Const0})
			case "1'b1":
				_, err = define(lhs, Gate{Kind: Const1})
			default:
				if _, dup := outputAssign[lhs]; dup {
					err = fmt.Errorf("verilog line %d: %q assigned twice", lineNo, lhs)
				}
				outputAssign[lhs] = rhs
			}
			if err != nil {
				return nil, err
			}

		case strings.HasPrefix(line, "BESPOKE_"):
			kind, pins, err := parseInstance(line)
			if err != nil {
				return nil, fmt.Errorf("verilog line %d: %w", lineNo, err)
			}
			outPin := "y"
			if kind == Dff {
				outPin = "q"
			}
			var reset logic.V
			if strings.HasPrefix(line, "BESPOKE_DFF1") {
				reset = logic.One
			}
			id, err := define(pins[outPin], Gate{Kind: kind, Reset: reset})
			if err != nil {
				return nil, err
			}
			switch kind {
			case Buf, Not:
				ref(id, 0, pins["a"])
			case Dff:
				ref(id, 0, pins["d"])
			case Mux:
				ref(id, 0, pins["a"])
				ref(id, 1, pins["b"])
				ref(id, 2, pins["s"])
			default:
				ref(id, 0, pins["a"])
				ref(id, 1, pins["b"])
			}

		default:
			return nil, fmt.Errorf("verilog line %d: unrecognized %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fixups {
		id, ok := names[f.net]
		if !ok {
			return nil, fmt.Errorf("verilog: undefined net %q", f.net)
		}
		n.Gates[f.gate].In[f.pin] = id
	}
	for _, p := range outputs {
		src, ok := outputAssign[p]
		if !ok {
			return nil, fmt.Errorf("verilog: output %q never assigned", p)
		}
		id, ok := names[src]
		if !ok {
			return nil, fmt.Errorf("verilog: output %q assigned from undefined net %q", p, src)
		}
		n.MarkOutput(p, id)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("verilog: parsed netlist invalid: %w", err)
	}
	return n, nil
}

// parseInstance decodes "BESPOKE_AND g12(.y(n5), .a(n1), .b(n2));".
func parseInstance(line string) (Kind, map[string]string, error) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return 0, nil, fmt.Errorf("bad instance %q", line)
	}
	cell := line[:sp]
	var kind Kind
	switch cell {
	case "BESPOKE_BUF":
		kind = Buf
	case "BESPOKE_NOT":
		kind = Not
	case "BESPOKE_AND":
		kind = And
	case "BESPOKE_OR":
		kind = Or
	case "BESPOKE_NAND":
		kind = Nand
	case "BESPOKE_NOR":
		kind = Nor
	case "BESPOKE_XOR":
		kind = Xor
	case "BESPOKE_XNOR":
		kind = Xnor
	case "BESPOKE_MUX":
		kind = Mux
	case "BESPOKE_DFF0", "BESPOKE_DFF1":
		kind = Dff
	default:
		return 0, nil, fmt.Errorf("unknown cell %q", cell)
	}
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return 0, nil, fmt.Errorf("bad instance %q", line)
	}
	pins := map[string]string{}
	for _, conn := range splitList(line[open+1 : close]) {
		// .pin(net)
		conn = strings.TrimPrefix(conn, ".")
		lp := strings.IndexByte(conn, '(')
		if lp < 0 || !strings.HasSuffix(conn, ")") {
			return 0, nil, fmt.Errorf("bad pin connection %q", conn)
		}
		pins[conn[:lp]] = conn[lp+1 : len(conn)-1]
	}
	return kind, pins, nil
}

// splitList splits a comma-separated list, respecting parentheses.
func splitList(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}
