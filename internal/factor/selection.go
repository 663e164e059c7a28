package factor

import (
	"fmt"
	"strings"
)

// Selection is a parsed local-solver selection: the backend New builds and
// the fill-reducing ordering its sparse factorisations use. Its string form
// is what every configuration surface carries — core.CommonOptions, the
// iterative baselines, the dist coordinator's assign message and its oracle —
// so every member of a run factorises the same local systems.
type Selection struct {
	// Backend is a backend name (see Backends).
	Backend string
	// Order is the ordering of the sparse backends; OrderAuto picks one per
	// matrix. The dense backends take no ordering.
	Order Ordering
}

// ParseSelection parses a selection string "backend[,order=name]", e.g.
// "sparse-supernodal,order=nd". The empty string selects "auto"; an absent
// order key means OrderAuto. Unknown backends, unknown or repeated keys,
// unknown orderings and an order on a dense backend are rejected, so
// ParseSelection(sel.String()) reproduces sel exactly.
func ParseSelection(s string) (Selection, error) {
	if s == "" {
		return Selection{Backend: Auto, Order: OrderAuto}, nil
	}
	items := strings.Split(s, ",")
	sel := Selection{Backend: strings.TrimSpace(items[0]), Order: OrderAuto}
	if !Known(sel.Backend) {
		return Selection{}, fmt.Errorf("factor: selection %q: unknown backend %q (have %v)", s, sel.Backend, Backends())
	}
	haveOrder := false
	for _, item := range items[1:] {
		key, val, ok := strings.Cut(item, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case !ok:
			return Selection{}, fmt.Errorf("factor: selection %q: parameter %q is not key=value", s, item)
		case key != "order":
			return Selection{}, fmt.Errorf("factor: selection %q: unknown parameter %q (have order)", s, key)
		case haveOrder:
			return Selection{}, fmt.Errorf("factor: selection %q: parameter %q given twice", s, key)
		}
		haveOrder = true
		ord, err := ParseOrdering(val)
		if err != nil {
			return Selection{}, fmt.Errorf("factor: selection %q: %w", s, err)
		}
		sel.Order = ord
	}
	if sel.Order != OrderAuto && (sel.Backend == DenseCholesky || sel.Backend == DenseLU) {
		return Selection{}, fmt.Errorf("factor: selection %q: backend %s takes no ordering", s, sel.Backend)
	}
	return sel, nil
}

// String returns the canonical selection string: the backend, plus
// ",order=name" unless the ordering is auto.
func (s Selection) String() string {
	if s.Order == OrderAuto {
		return s.Backend
	}
	return s.Backend + ",order=" + s.Order.String()
}
