exception Exhausted of { engine : string; budget : int; instance : Instance.t }
