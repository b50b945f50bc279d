package nn

// PoisonWorkspace makes c's workspace fill every slot with NaN at each
// reset and every new slot when it is made, so that a read of activation
// memory no producer wrote in the current step turns the result into NaN.
func PoisonWorkspace(c *Ctx) {
	c.ResetWorkspace()
	c.ws.poison = true
}
