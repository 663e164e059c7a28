package factor

import (
	"strings"
	"testing"
)

func TestParseSelection(t *testing.T) {
	for _, tc := range []struct {
		in, canonical string
		want          Selection
	}{
		{"", "auto", Selection{Auto, OrderAuto}},
		{"auto", "auto", Selection{Auto, OrderAuto}},
		{"auto,order=nd", "auto,order=nd", Selection{Auto, OrderND}},
		{"sparse-supernodal,order=nd", "sparse-supernodal,order=nd", Selection{SparseSupernodal, OrderND}},
		{"sparse-cholesky,order=natural", "sparse-cholesky,order=natural", Selection{SparseCholesky, OrderNatural}},
		{"sparse-ldlt,order=amd", "sparse-ldlt,order=amd", Selection{SparseLDLT, OrderAMD}},
		{" sparse-cholesky , order = rcm ", "sparse-cholesky,order=rcm", Selection{SparseCholesky, OrderRCM}},
		{"sparse-cholesky,order=auto", "sparse-cholesky", Selection{SparseCholesky, OrderAuto}},
		{"dense-lu", "dense-lu", Selection{DenseLU, OrderAuto}},
		{"dense-cholesky,order=auto", "dense-cholesky", Selection{DenseCholesky, OrderAuto}},
	} {
		got, err := ParseSelection(tc.in)
		if err != nil {
			t.Errorf("ParseSelection(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want || got.String() != tc.canonical {
			t.Errorf("ParseSelection(%q) = %+v (%q), want %+v (%q)", tc.in, got, got, tc.want, tc.canonical)
		}
	}
}

func TestParseSelectionErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"no-such-backend", "unknown backend"},
		{",order=nd", "unknown backend"},
		{"sparse-supernodal,order=metis", "unknown ordering"},
		{"sparse-supernodal,order=nd,order=amd", "given twice"},
		{"sparse-supernodal,order=nd,order=nd", "given twice"},
		{"sparse-supernodal,threads=4", "unknown parameter"},
		{"sparse-supernodal,nd", "not key=value"},
		{"sparse-supernodal,", "not key=value"},
		{"dense-lu,order=nd", "takes no ordering"},
	} {
		_, err := ParseSelection(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSelection(%q) = %v, want an error containing %q", tc.in, err, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.in) {
			t.Errorf("ParseSelection(%q) error %q does not name the selection", tc.in, err)
		}
		if _, nerr := New(tc.in, nil); nerr == nil {
			t.Errorf("New accepted the selection %q", tc.in)
		}
	}
}

// FuzzParseSelection checks the grammar's round trip on arbitrary input: an
// accepted selection's canonical string parses back to the same selection
// and is its own canonical form.
func FuzzParseSelection(f *testing.F) {
	for _, s := range []string{"", "auto", "sparse-supernodal,order=nd", "dense-lu", "sparse-ldlt, order=amd",
		"sparse-cholesky,order=nd,order=nd", "dense-cholesky,order=rcm", "x,y=z", ",", "auto,order="} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sel, err := ParseSelection(in)
		if err != nil {
			return
		}
		canon := sel.String()
		again, err := ParseSelection(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, in, err)
		}
		if again != sel || again.String() != canon {
			t.Fatalf("%q -> %+v (%q) -> %+v (%q): not a fixed point", in, sel, canon, again, again)
		}
		if !Known(sel.Backend) {
			t.Fatalf("%q parsed to unknown backend %q", in, sel.Backend)
		}
	})
}
