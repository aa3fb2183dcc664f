package kio

// BlockSize returns the backend's block size.
func (e *Engine) BlockSize() int { return e.backend.BlockSize() }
