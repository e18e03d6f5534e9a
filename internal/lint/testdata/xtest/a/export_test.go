package a

// Peek exists only in a's test build, the external test package included.
func (t *T) Peek() int { return t.n }
