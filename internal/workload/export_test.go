package workload

// LiveFiles returns the number of files the workload believes exist.
func (w *FSWorkload) LiveFiles() int { return len(w.files) }
