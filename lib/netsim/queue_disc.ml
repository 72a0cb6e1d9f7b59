include Link.Queue_disc
