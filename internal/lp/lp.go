// Package lp implements a small dense linear-programming solver used as the
// substrate for the divisible-load scheduling linear programs of Beaumont,
// Marchal, Rehn and Robert (RR-5738). The paper's experiments used the
// external lp_solve package; this package replaces it with a self-contained
// two-phase primal simplex available in two arithmetic flavours:
//
//   - a float64 tableau simplex (Solve), fast and suitable for benchmarks,
//     with Dantzig pricing and an automatic switch to Bland's rule to
//     guarantee termination on degenerate problems; and
//   - an exact rational simplex over math/big.Rat (SolveExact), used by the
//     theory tests to verify optimality statements as identities rather
//     than approximations.
//
// The modelled problems are of the form
//
//	max (or min)  objᵀ·x
//	subject to    aᵢᵀ·x  {≤,=,≥}  bᵢ     for every row i
//	              x ≥ 0
//
// All variables are non-negative; this is sufficient for every program in
// the divisible-load framework (loads and idle times are non-negative by
// definition). Free variables are deliberately not supported.
package lp

import (
	"fmt"
	"math"
	"strings"
)

// Sense is the relational operator of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Status reports the outcome of a solve.
type Status int

// Solver outcomes.
const (
	// Optimal means a finite optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set is empty.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Coef is a single (variable, coefficient) entry of a constraint row.
type Coef struct {
	Var   int
	Value float64
}

// row is one stored constraint. Both a dense float64 view and the raw term
// list are kept: the float solver uses the dense view, while the exact
// solver re-accumulates the raw terms in rational arithmetic so that sums
// of coefficients (e.g. c+w+d in the scheduling LPs) carry no float64
// rounding.
type row struct {
	name  string
	coefs []float64 // dense, length == number of variables at solve time
	terms []Coef    // raw terms as given to AddConstraint/AddDense
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create instances with NewMaximize or NewMinimize. Problems are not
// safe for concurrent mutation, but a fully built Problem may be solved from
// several goroutines concurrently (Solve and SolveExact do not mutate it).
type Problem struct {
	maximize bool
	obj      []float64
	varNames []string
	rows     []row
}

// NewMaximize returns an empty maximization problem.
func NewMaximize() *Problem { return &Problem{maximize: true} }

// NewMinimize returns an empty minimization problem.
func NewMinimize() *Problem { return &Problem{maximize: false} }

// IsMaximize reports whether the problem maximizes its objective.
func (p *Problem) IsMaximize() bool { return p.maximize }

// AddVar appends a non-negative variable with the given name and objective
// coefficient, returning its index. Names are only used for diagnostics and
// need not be unique.
func (p *Problem) AddVar(name string, objCoef float64) int {
	p.varNames = append(p.varNames, name)
	p.obj = append(p.obj, objCoef)
	for i := range p.rows {
		p.rows[i].coefs = append(p.rows[i].coefs, 0)
	}
	return len(p.varNames) - 1
}

// SetObj overwrites the objective coefficient of variable v.
func (p *Problem) SetObj(v int, coef float64) {
	p.obj[v] = coef
}

// SetSense overwrites the sense of row r.
func (p *Problem) SetSense(r int, s Sense) {
	p.rows[r].sense = s
}

// AddConstraint appends the row  Σ coefs  sense  rhs. Entries referencing
// the same variable accumulate. It panics if a variable index is out of
// range, mirroring slice indexing semantics.
func (p *Problem) AddConstraint(name string, coefs []Coef, sense Sense, rhs float64) {
	dense := make([]float64, len(p.varNames))
	terms := make([]Coef, len(coefs))
	copy(terms, coefs)
	for _, c := range coefs {
		dense[c.Var] += c.Value
	}
	p.rows = append(p.rows, row{name: name, coefs: dense, terms: terms, sense: sense, rhs: rhs})
}

// AddDense appends a constraint given as a dense coefficient vector. The
// slice is copied; it must have exactly NumVars entries.
func (p *Problem) AddDense(name string, coefs []float64, sense Sense, rhs float64) {
	if len(coefs) != len(p.varNames) {
		panic(fmt.Sprintf("lp: AddDense row %q has %d coefficients, problem has %d variables",
			name, len(coefs), len(p.varNames)))
	}
	dense := make([]float64, len(coefs))
	copy(dense, coefs)
	var terms []Coef
	for v, c := range coefs {
		if c != 0 {
			terms = append(terms, Coef{Var: v, Value: c})
		}
	}
	p.rows = append(p.rows, row{name: name, coefs: dense, terms: terms, sense: sense, rhs: rhs})
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.varNames) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// VarName returns the name given to variable v.
func (p *Problem) VarName(v int) string { return p.varNames[v] }

// String renders the whole program in a readable algebraic form, useful in
// test failures and debug logs.
func (p *Problem) String() string {
	var b strings.Builder
	if p.maximize {
		b.WriteString("maximize ")
	} else {
		b.WriteString("minimize ")
	}
	b.WriteString(renderRow(p.obj, p.varNames))
	b.WriteString("\nsubject to\n")
	for _, r := range p.rows {
		fmt.Fprintf(&b, "  %-14s %s %s %g\n", r.name+":", renderRow(r.coefs, p.varNames), r.sense, r.rhs)
	}
	b.WriteString("  x >= 0\n")
	return b.String()
}

func renderRow(coefs []float64, names []string) string {
	var parts []string
	for i, c := range coefs {
		if c == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%+g·%s", c, names[i]))
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " ")
}

// Solution is the result of a float64 solve.
type Solution struct {
	Status     Status
	Objective  float64   // meaningful only when Status == Optimal
	X          []float64 // variable values, length NumVars; only when Optimal
	Slack      []float64 // per-row slack (rhs - aᵀx for ≤, aᵀx - rhs for ≥, 0 for =)
	Iterations int       // total simplex pivots across both phases
}

// Value returns the value of variable v in the solution.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// validate performs cheap sanity checks shared by both solvers.
func (p *Problem) validate() error {
	if len(p.varNames) == 0 {
		return fmt.Errorf("lp: problem has no variables")
	}
	for _, r := range p.rows {
		if math.IsNaN(r.rhs) || math.IsInf(r.rhs, 0) {
			return fmt.Errorf("lp: row %q has non-finite right-hand side %v", r.name, r.rhs)
		}
		for j, c := range r.coefs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("lp: row %q has non-finite coefficient %v for %s", r.name, c, p.varNames[j])
			}
		}
	}
	for j, c := range p.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: objective has non-finite coefficient %v for %s", c, p.varNames[j])
		}
	}
	return nil
}

// computeSlacks fills Solution.Slack from primal values.
func (p *Problem) computeSlacks(x []float64) []float64 {
	slack := make([]float64, len(p.rows))
	for i, r := range p.rows {
		dot := 0.0
		for j, c := range r.coefs {
			dot += c * x[j]
		}
		switch r.sense {
		case LE:
			slack[i] = r.rhs - dot
		case GE:
			slack[i] = dot - r.rhs
		case EQ:
			slack[i] = 0
		}
	}
	return slack
}
