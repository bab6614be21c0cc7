package transport

// Call runs fn with h's lock held, so a test can drive the core.Env
// methods under their serialization contract.
func (h *Host) Call(fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn()
}
