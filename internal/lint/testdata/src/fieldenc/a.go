// Package fieldenc exercises the fieldenc analyzer: the registered
// accounting fields (Port.occ, Port.credits) may only be assigned
// inside their sanctioned mutators; other fields are unrestricted.
package fieldenc

type Port struct {
	occ     int
	credits int
	watch   func(int)
	label   string
}

type Router struct {
	out   []Port
	heads []*Port
}

// occDelta is the sanctioned mutator of occ.
func (r *Router) occDelta(p int, d int) {
	r.out[p].occ += d
	if r.out[p].watch != nil {
		r.out[p].watch(r.out[p].occ)
	}
}

// newRouter is a sanctioned writer of credits.
func newRouter(ports, credit int) *Router {
	r := &Router{out: make([]Port, ports)}
	for i := range r.out {
		r.out[i].credits = credit
	}
	return r
}

func (r *Router) badDirect(p int) {
	r.out[p].occ = 0 // want `write to fixture/fieldenc.Port.occ`
}

func (r *Router) badCompound(p int) {
	r.out[p].occ += 2 // want `write to fixture/fieldenc.Port.occ`
}

func (r *Router) badIncDec(p int) {
	r.out[p].credits++ // want `write to fixture/fieldenc.Port.credits`
}

// setHead is the sanctioned writer of heads' elements.
func (r *Router) setHead(i int, pt *Port) {
	r.heads[i] = pt
}

func (r *Router) badElement(i int) {
	r.heads[i] = nil // want `write to fixture/fieldenc.Router.heads`
}

func badPointer(pt *Port) {
	pt.occ = 7 // want `write to fixture/fieldenc.Port.occ`
}

func badMulti(pt *Port) {
	pt.label, pt.credits = "x", 3 // want `write to fixture/fieldenc.Port.credits`
}

func okOtherFields(pt *Port) {
	pt.label = "east"
	pt.watch = nil
}

func okRead(pt *Port) int {
	return pt.occ + pt.credits
}

func (r *Router) okElementRead(i int) *Port {
	return r.heads[i]
}
