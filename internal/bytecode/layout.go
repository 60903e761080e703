package bytecode

import (
	"fmt"

	"repro/internal/segment"
)

// SegConfig selects segment sizes at initialization time.  The segment
// size is deliberately absent from SIAL source (paper §III): it is "a
// default value that has been chosen for the particular system or
// specified by the user at runtime", uniform per index type.
type SegConfig struct {
	// Default is the segment size used when no per-kind override is
	// present.  Must be >= 1.
	Default int
	// PerKind overrides the segment size for specific index kinds.
	PerKind map[segment.Kind]int
	// SubSegments is the number of subsegments per segment for
	// subindices (paper §IV-E1: "determined by a runtime parameter in
	// the same way as the segment size").  Defaults to 2.
	SubSegments int
}

// DefaultSegConfig returns a SegConfig with the given uniform segment
// size.
func DefaultSegConfig(seg int) SegConfig {
	return SegConfig{Default: seg, SubSegments: 2}
}

func (c SegConfig) segFor(k segment.Kind) int {
	if s, ok := c.PerKind[k]; ok {
		return s
	}
	return c.Default
}

// Layout is the concrete, initialization-time view of a program: every
// symbolic value replaced, every index a concrete segmented range, every
// array a concrete shape.
type Layout struct {
	Prog      *Program
	ParamVals []int
	Indices   []segment.Index
	Shapes    []segment.Shape
}

// Resolve fixes parameter values and segment sizes, turning descriptor
// tables into concrete index ranges and array shapes.  Unknown names in
// params are rejected to catch typos.
func (p *Program) Resolve(params map[string]int, cfg SegConfig) (*Layout, error) {
	if !p.lowered {
		return nil, fmt.Errorf("bytecode: program %s is not lowered (Program.Lower)", p.Name)
	}
	if len(p.Arrays) > MaxArrays {
		return nil, fmt.Errorf("bytecode: program %s declares %d arrays, at most %d are supported", p.Name, len(p.Arrays), MaxArrays)
	}
	if cfg.Default < 1 {
		return nil, fmt.Errorf("bytecode: segment size %d < 1", cfg.Default)
	}
	if cfg.SubSegments == 0 {
		cfg.SubSegments = 2
	}
	for name := range params {
		if p.ParamID(name) < 0 {
			return nil, fmt.Errorf("bytecode: program %s has no parameter %q", p.Name, name)
		}
	}
	l := &Layout{Prog: p, ParamVals: make([]int, len(p.Params))}
	for i, pr := range p.Params {
		if v, ok := params[pr.Name]; ok {
			l.ParamVals[i] = v
		} else if pr.HasDefault {
			l.ParamVals[i] = pr.Default
		} else {
			return nil, fmt.Errorf("bytecode: parameter %q has no value and no default", pr.Name)
		}
	}
	l.Indices = make([]segment.Index, len(p.Indices))
	for i, ix := range p.Indices {
		if ix.Parent >= 0 {
			// Parents precede subindices in the table (declaration
			// order is enforced by the checker).
			parent := l.Indices[ix.Parent]
			sub, err := parent.SubIndex(ix.Name, cfg.SubSegments)
			if err != nil {
				return nil, err
			}
			l.Indices[i] = sub
			continue
		}
		lo, err := l.val(ix.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := l.val(ix.Hi)
		if err != nil {
			return nil, err
		}
		seg := cfg.segFor(ix.Kind)
		if ix.Kind == segment.Simple {
			seg = 1
		}
		idx := segment.Index{Name: ix.Name, Kind: ix.Kind, Lo: lo, Hi: hi, Seg: seg}
		if err := idx.Validate(); err != nil {
			return nil, fmt.Errorf("bytecode: index %s: %w", ix.Name, err)
		}
		l.Indices[i] = idx
	}
	l.Shapes = make([]segment.Shape, len(p.Arrays))
	for i, a := range p.Arrays {
		dims := make([]segment.Index, len(a.Dims))
		for d, id := range a.Dims {
			dims[d] = l.Indices[id]
		}
		sh, err := segment.NewShape(dims...)
		if err != nil {
			return nil, fmt.Errorf("bytecode: array %s: %w", a.Name, err)
		}
		if !sh.BlocksFit(MaxBlocks) {
			return nil, fmt.Errorf("bytecode: array %s has more than %d blocks; use larger segments", a.Name, MaxBlocks)
		}
		l.Shapes[i] = sh
	}
	return l, nil
}

func (l *Layout) val(v Val) (int, error) {
	if v.Param >= 0 {
		return l.ParamVals[v.Param], nil
	}
	return v.Lit, nil
}

// ParamVal returns the resolved value of parameter id.
func (l *Layout) ParamVal(id int) int { return l.ParamVals[id] }

// IndexRange returns the iteration range of an index for loops: segment
// numbers [1, NumSegments] for segmented indices, the element range for
// simple indices.
func (l *Layout) IndexRange(id int) (lo, hi int) {
	ix := l.Indices[id]
	if ix.Kind.Segmented() {
		return 1, ix.NumSegments()
	}
	return ix.Lo, ix.Hi
}

// BlockBytes returns the size in bytes of the block of array arr at the
// given coordinate (float64 elements).
func (l *Layout) BlockBytes(arr int, c segment.Coord) int {
	return 8 * l.Shapes[arr].BlockElems(c)
}
