package netlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"tpsta/internal/cell"
)

const verilogSample = `
// a small mapped netlist
module sample (a, b, c, d, z1, z2);
  input a, b;
  input c, d;
  output z1, z2;
  wire n1, n2;
  /* the complex core */
  AO22  u1 (.A(a), .B(b), .C(c), .D(d), .Z(n1));
  NAND2 u2 (.A(n1), .B(c), .Z(n2));
  INV   u3 (.A(n2), .Z(z1));
  XOR2  u4 (.A(n1), .B(n2), .Z(z2));
endmodule
`

func TestParseVerilog(t *testing.T) {
	c, err := ParseVerilog("sample", strings.NewReader(verilogSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 4 || len(c.Outputs) != 2 || len(c.Gates) != 4 {
		t.Fatalf("shape %d/%d/%d", len(c.Inputs), len(c.Outputs), len(c.Gates))
	}
	counts := cellCounts(c)
	if counts["AO22"] != 1 || counts["XOR2"] != 1 {
		t.Errorf("cells: %v", counts)
	}
	// Functional spot check: a=b=1 → n1=1; c=1 → n2=NAND(1,1)=0 → z1=1;
	// z2=XOR(1,0)=1.
	vals, err := c.EvalBool(map[string]bool{"a": true, "b": true, "c": true, "d": false})
	if err != nil {
		t.Fatal(err)
	}
	if !vals["z1"] || !vals["z2"] {
		t.Errorf("eval: z1=%v z2=%v", vals["z1"], vals["z2"])
	}
}

func TestParseVerilogErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no module", "input a;"},
		{"behavioural", "module m (a); input a; assign z = a; endmodule"},
		{"unknown cell", "module m (a, z); input a; output z; FROB u1 (.A(a), .Z(z)); endmodule"},
		{"positional ports", "module m (a, z); input a; output z; INV u1 (a, z); endmodule"},
		{"no output pin", "module m (a, z); input a; output z; INV u1 (.A(a)); endmodule"},
		{"duplicate pin", "module m (a, z); input a; output z; INV u1 (.A(a), .A(a), .Z(z)); endmodule"},
		{"missing endmodule", "module m (a, z); input a; output z; INV u1 (.A(a), .Z(z));"},
		{"unterminated comment", "module m (a, z); /* oops"},
		{"bad char", "module m (a, z); input a; output z; INV u1 (.A(a), .Z(z)); # endmodule"},
		{"missing semicolon", "module m (a, z); input a output z; endmodule"},
	}
	for _, cse := range cases {
		if _, err := ParseVerilog(cse.name, strings.NewReader(cse.src)); err == nil {
			t.Errorf("%s: expected error", cse.name)
		}
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	orig, err := ParseVerilog("sample", strings.NewReader(verilogSample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseVerilog("sample", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if len(back.Gates) != len(orig.Gates) {
		t.Fatalf("round trip changed gate count: %d vs %d", len(back.Gates), len(orig.Gates))
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		env := map[string]bool{}
		for _, in := range orig.Inputs {
			env[in.Name] = r.Intn(2) == 1
		}
		v1, _ := orig.EvalBool(env)
		v2, _ := back.EvalBool(env)
		for _, o := range orig.Outputs {
			if v1[o.Name] != v2[o.Name] {
				t.Fatalf("function changed at %v", env)
			}
		}
	}
}

func TestVerilogWriteC17(t *testing.T) {
	c := parseC17(t)
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "module c17") || !strings.Contains(out, "NAND2") {
		t.Errorf("output:\n%s", out)
	}
	back, err := ParseVerilog("c17", strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Gates) != 6 {
		t.Errorf("c17 gates after verilog round trip: %d", len(back.Gates))
	}
	_ = cell.Default()
}

func TestSanitizeVerilogName(t *testing.T) {
	if sanitizeVerilogName("") != "top" {
		t.Error("empty name")
	}
	if sanitizeVerilogName("c17") != "c17" {
		t.Error("plain name mangled")
	}
	if got := sanitizeVerilogName("9lives-x"); got != "m_9lives_x" {
		t.Errorf("sanitize = %q", got)
	}
}
