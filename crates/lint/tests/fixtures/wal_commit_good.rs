//! Known-good: the journal commit dominates the call that sends a read
//! batch's queued acknowledgments.

impl Frontend {
    pub fn handle_line(&mut self, line_no: u64, spec: JobSpec) -> Result<(), WalError> {
        self.durable.append(WalRecord::Job(spec.clone()))?;
        self.responder.accepted(line_no, spec.id);
        Ok(())
    }

    pub fn end_batch(&mut self) -> Result<(), WalError> {
        if let Some(d) = &mut self.durable {
            d.commit()?;
        }
        self.responder.send_batch();
        Ok(())
    }
}
