package frame

// Component is a 4-connected region of non-zero pixels, as produced by
// LabelComponents. The marker-extraction task scores components as candidate
// balloon markers.
type Component struct {
	Size    int     // pixel count
	BBox    Rect    // tight bounding box
	CX, CY  float64 // centroid
	MeanVal float64 // mean source-pixel value over the component
	Compact float64 // Size / BBox.Area(); 1.0 for a filled rectangle
}

// LabelComponents finds 4-connected components of non-zero pixels in mask,
// computing statistics against the pixel values of src (which must share
// mask's bounds; pass mask itself to use binary values), and appends them to
// comps. Components smaller than minSize are discarded. stack is the flood
// fill's buffer, whatever it holds; both grown buffers are returned, so a
// caller that keeps them across calls allocates nothing once they are large
// enough.
func LabelComponents(comps []Component, stack [][2]int, mask, src *Frame, minSize int) ([]Component, [][2]int) {
	if src == nil {
		src = mask
	}
	b := mask.Bounds
	w, h := b.Width(), b.Height()
	if w == 0 || h == 0 {
		return comps, stack
	}
	// seen marks the pixels already given to a component: a pooled frame,
	// zeroed on borrow.
	seen := Borrow(w, h)
	defer Release(seen)
	// Iterative flood fill with an explicit stack to avoid recursion depth
	// limits on large blobs.
	for y := 0; y < h; y++ {
		mrow, srow := mask.Pix[y*mask.Stride:][:w], seen.Pix[y*w:][:w]
		for x, m := range mrow {
			if m == 0 || srow[x] != 0 {
				continue
			}
			c := Component{BBox: Rect{b.X0 + x, b.Y0 + y, b.X0 + x + 1, b.Y0 + y + 1}}
			var sumX, sumY, sumV float64
			stack = stack[:0]
			stack = append(stack, [2]int{x, y})
			srow[x] = 1
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				px, py := p[0], p[1]
				gx, gy := b.X0+px, b.Y0+py
				c.Size++
				sumX += float64(gx)
				sumY += float64(gy)
				sumV += float64(src.AtClamped(gx, gy))
				c.BBox = c.BBox.Union(Rect{gx, gy, gx + 1, gy + 1})
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := px+d[0], py+d[1]
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					if seen.Pix[ny*w+nx] != 0 || mask.Pix[ny*mask.Stride+nx] == 0 {
						continue
					}
					seen.Pix[ny*w+nx] = 1
					stack = append(stack, [2]int{nx, ny})
				}
			}
			if c.Size < minSize {
				continue
			}
			c.CX = sumX / float64(c.Size)
			c.CY = sumY / float64(c.Size)
			c.MeanVal = sumV / float64(c.Size)
			if a := c.BBox.Area(); a > 0 {
				c.Compact = float64(c.Size) / float64(a)
			}
			comps = append(comps, c)
		}
	}
	return comps, stack
}
